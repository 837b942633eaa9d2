package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ckpt"
)

// stateStore is the durable side of preemptible jobs: a directory holding one
// sealed snapshot per in-progress job hash plus a results.json of finished
// work. Everything in it survives a SIGKILL of the daemon — writes are
// tmp+rename atomic, and corrupt or stale snapshots are detected (and
// discarded) by the ckpt envelope on the way back in.
type stateStore struct {
	dir string
}

// newStateStore opens (creating if needed) the state directory. An empty dir
// disables durability: every method is a cheap no-op.
func newStateStore(dir string) (*stateStore, error) {
	if dir == "" {
		return &stateStore{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	return &stateStore{dir: dir}, nil
}

func (st *stateStore) enabled() bool { return st.dir != "" }

// ckptPath maps a job hash to its snapshot file. Hashes are hex, so they are
// safe as file names.
func (st *stateStore) ckptPath(hash string) string {
	return filepath.Join(st.dir, hash+".ckpt")
}

// LoadCkpt returns the stored snapshot for hash after envelope validation.
// A snapshot that fails validation (truncated write at crash time, stale
// format) is deleted on the spot so the job simply runs from the start
// instead of failing forever.
func (st *stateStore) LoadCkpt(hash string) ([]byte, bool) {
	if !st.enabled() {
		return nil, false
	}
	data, err := os.ReadFile(st.ckptPath(hash))
	if err != nil {
		return nil, false
	}
	if _, err := ckpt.Open(data); err != nil {
		os.Remove(st.ckptPath(hash))
		return nil, false
	}
	return data, true
}

// SaveCkpt atomically replaces the stored snapshot for hash.
func (st *stateStore) SaveCkpt(hash string, snap []byte) error {
	if !st.enabled() {
		return nil
	}
	return atomicWrite(st.ckptPath(hash), snap)
}

// DropCkpt removes the stored snapshot for hash (job finished; the snapshot
// is dead weight).
func (st *stateStore) DropCkpt(hash string) {
	if st.enabled() {
		os.Remove(st.ckptPath(hash))
	}
}

// HasCkpt reports whether a snapshot is stored for hash.
func (st *stateStore) HasCkpt(hash string) bool {
	if !st.enabled() {
		return false
	}
	_, err := os.Stat(st.ckptPath(hash))
	return err == nil
}

// CkptHashes lists every job hash with a stored snapshot, in directory order
// — the scan input for cluster anti-entropy repair.
func (st *stateStore) CkptHashes() []string {
	if !st.enabled() {
		return nil
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var hashes []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if h, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok {
			hashes = append(hashes, h)
		}
	}
	return hashes
}

// persistedResult pairs a hash with its canonical result JSON.
type persistedResult struct {
	Hash   string          `json:"hash"`
	Result json.RawMessage `json:"result"`
}

// SaveResults persists the result cache (oldest first, so reloading in order
// reproduces the LRU order).
func (st *stateStore) SaveResults(entries []persistedResult) error {
	if !st.enabled() {
		return nil
	}
	b, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.dir, "results.json"), b)
}

// LoadResults returns the persisted result cache (empty on any miss or decode
// failure: the cache is an optimization, not a source of truth).
func (st *stateStore) LoadResults() []persistedResult {
	if !st.enabled() {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(st.dir, "results.json"))
	if err != nil {
		return nil
	}
	var entries []persistedResult
	if json.Unmarshal(b, &entries) != nil {
		return nil
	}
	return entries
}

// atomicWrite writes data to path via a same-directory temp file and rename,
// so readers (and a daemon restarted after SIGKILL) never observe a torn
// file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// warmCacheCap bounds the warm-snapshot cache, an lruCache keyed by
// WarmHash. Warm snapshots are full system images (hundreds of KB for
// realistic plans), and a sweep reuses one per shared prefix, so a handful
// covers concurrent sweeps. The cache is memory-only: a warm snapshot is a
// pure optimization (the warmup prefix can always be re-simulated) and is
// cheap to rebuild on restart.
const warmCacheCap = 8

// validSnapshotName reports whether hash is safe to use as a snapshot file
// name component (defense for the peer/HTTP checkpoint endpoints).
func validSnapshotName(hash string) bool {
	if hash == "" || len(hash) > 128 {
		return false
	}
	return !strings.ContainsAny(hash, "/\\. ")
}
