package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/server"
)

// digests.txt holds the SHA-256 of the canonical bytes server.Runner
// produces for every catalogue job (keyed by plan hash) and of every
// figure's rendered text at quick scale (keyed by figure id). A benchmark
// operation whose output hashes differently has failed. Regenerate it with
// --record after a change that is meant to alter outputs.
//
//go:embed digests.txt
var digestFile string

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func loadDigests() (map[string]string, error) {
	out := map[string]string{}
	for n, line := range strings.Split(digestFile, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || (f[0] != "job" && f[0] != "fig") {
			return nil, fmt.Errorf("digests.txt:%d: want \"job|fig <key> <sha256>\"", n+1)
		}
		out[f[1]] = f[2]
	}
	return out, nil
}

// record runs every catalogue job through server.Runner and regenerates
// every figure, and writes their digests to path.
func record(path string) error {
	specs := catalogue()
	lines := make([]string, len(specs))
	errs := make([]error, len(specs))
	pool.ForEach(len(specs), func(i int) {
		j, err := newJob(specs[i])
		if err != nil {
			errs[i] = err
			return
		}
		res, err := server.NewRunner().Run(context.Background(), j.plan)
		if err != nil {
			errs[i] = fmt.Errorf("job %s: %w", j.key, err)
			return
		}
		lines[i] = fmt.Sprintf("job %s %s", j.key, sha(res.Canonical()))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sort.Strings(lines)
	pool.SetWorkers(1)
	for _, id := range append([]string{warmFigure}, figureIDs...) {
		sc := exp.QuickScale()
		sc.Obs = obs.New()
		r, err := exp.Run(id, sc)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("fig %s %s", id, sha([]byte(r.String()))))
	}
	head := "# SHA-256 of server.Runner's canonical result bytes per catalogue job (keyed by\n" +
		"# plan hash) and of each figure's rendered text at quick scale (keyed by id).\n" +
		"# Written by: bash perfbench/run.sh --record perfbench/digests.txt\n"
	return os.WriteFile(path, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644)
}

// checker compares operation outputs against the recorded digests and
// counts operations attempted and failed. It is safe for concurrent use.
type checker struct {
	want map[string]string

	mu        sync.Mutex
	attempted int
	failed    int
	reported  int
}

// check records one operation: err is its own failure, out its output.
func (c *checker) check(key string, out []byte, err error) bool {
	if err == nil {
		want, ok := c.want[key]
		switch {
		case !ok:
			err = fmt.Errorf("no recorded digest")
		case sha(out) != want:
			err = fmt.Errorf("output digest %s, recorded %s", sha(out)[:16], want[:16])
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if c.reported < 5 {
		c.reported++
		fmt.Fprintf(os.Stderr, "perfbench: operation %s failed: %v\n", key, err)
	}
	return false
}
