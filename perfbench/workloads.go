package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/server"
)

// batch is one timed pass over a workload's fixed input.
type batch struct {
	sec      sectionResult
	jobs     int
	accesses uint64
}

// outcome is everything a run measured.
type outcome struct {
	setups []float64 // CPU seconds per set-up
	plain  []batch   // untraced batches
	traced []batch   // traced batches (traced runs only)
	layers map[string]float64
	notes  []string
	spans  []*tracer
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// env is the run's fixed context.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	check   *checker
}

// repeat runs setUp and then timed batches until the run has lasted
// e.seconds, at least once. Each set-up is measured on its own, in CPU
// time like the batches: wall clock on this kind of shared host swings with
// steal time.
func (e *env) repeat(out *outcome, setUp func() error, timed func(pass int) error) error {
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < e.seconds; pass++ {
		cpu0 := cpuNow()
		if err := setUp(); err != nil {
			return err
		}
		out.setups = append(out.setups, (cpuNow() - cpu0).Seconds())
		if err := timed(pass); err != nil {
			return err
		}
	}
	return nil
}

// runnerWorkload drives jobs back to back through server.Runner, the path
// `vans -json` and nvmserved share (chase-read, store-write). seal hands
// every run a checkpoint sink that keeps the latest sealed snapshot in
// memory, as nvmserved's state store keeps the latest one per job.
func runnerWorkload(e *env, inputs func(uint64) (server.JobSpec, []server.JobSpec), seal bool) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	ctx := context.Background()
	rn := server.NewRunner()
	runOne := func(j job) (*server.Result, error) {
		if !seal {
			return rn.Run(ctx, j.plan)
		}
		var store latestSnapshot
		return rn.RunAttemptCkpt(ctx, j.plan, 0, &server.CkptIO{Sink: store.save})
	}
	checked := func(j job) uint64 {
		res, err := runOne(j)
		var canon []byte
		if err == nil {
			canon = res.Canonical()
		}
		if !e.check.check(j.key, canon, err) {
			return 0
		}
		return uint64(res.Accesses)
	}

	var jobs []job
	var rb rebuilds
	setUp := func() error {
		warmSpec, specs := inputs(e.seed)
		var err error
		if jobs, err = newJobs(specs); err != nil {
			return err
		}
		warm, err := newJob(warmSpec)
		if err != nil {
			return err
		}
		checked(warm)
		return nil
	}
	timed := func(pass int) error {
		sec := startSection()
		var acc uint64
		for _, j := range jobs {
			acc += checked(j)
		}
		out.plain = append(out.plain, batch{sec.stop(), len(jobs), acc})
		if !e.traced {
			return nil
		}
		sec = startSection()
		acc = 0
		for i, j := range jobs {
			acc += rb.run(e.check, pass*len(jobs)+i, j, seal)
		}
		out.traced = append(out.traced, batch{sec.stop(), len(jobs), acc})
		return nil
	}
	if err := e.repeat(out, setUp, timed); err != nil {
		return nil, err
	}
	if e.traced {
		rb.report(out)
	}
	return out, nil
}

// rebuilds runs traced rebuilds of jobs, checks each against the Runner's
// digest and sums what they yield.
type rebuilds struct {
	t                       *tracer
	sim                     simCounts
	jobs, snapshots, sealed int
	events, accesses        uint64
}

// run rebuilds one job and returns the accesses it simulated (0 if it
// failed).
func (rb *rebuilds) run(c *checker, id int, j job, seal bool) uint64 {
	if rb.t == nil {
		rb.t = newTracer(true)
	}
	r, err := rebuild(rb.t, id, j.spec, seal)
	if !c.check(j.key, r.canonical, err) {
		return 0
	}
	rb.sim.add(r.dump)
	rb.jobs++
	rb.snapshots += r.snapshots
	rb.sealed += r.sealedBytes
	rb.events += r.events
	rb.accesses += uint64(r.accesses)
	return uint64(r.accesses)
}

// report adds the per-layer metrics of the rebuilt jobs and their spans.
func (rb *rebuilds) report(out *outcome) {
	if rb.t == nil {
		return
	}
	spanLayers(out.layers, rb.t.totals(), rb.jobs, rb.events, rb.accesses)
	simLayers(out.layers, rb.sim)
	out.layers["ckpt.snapshots"] = ratio(float64(rb.snapshots), float64(rb.jobs))
	out.layers["ckpt.sealed_mb"] = ratio(float64(rb.sealed), float64(rb.jobs)) / (1 << 20)
	out.spans = append(out.spans, rb.t)
}

// latestSnapshot keeps the last sealed snapshot a run handed its sink.
type latestSnapshot struct{ snap []byte }

func (l *latestSnapshot) save(_ int, snap []byte) error {
	l.snap = snap
	return nil
}

func chaseRead(e *env) (*outcome, error) { return runnerWorkload(e, chaseInputs, false) }

func storeWrite(e *env) (*outcome, error) { return runnerWorkload(e, storeInputs, true) }

// reply is one serve-mix request as the client saw it.
type reply struct {
	latency      time.Duration
	queued, run  float64 // server-reported, ms
	cached, warm bool
	warmup       bool // the job has a warmup prefix
	accesses     uint64
	ok           bool
}

// serveMix runs an in-process nvmserved behind a loopback listener and two
// closed-loop clients: each posts a job with ?wait=1 and sends its next one
// only after the reply has arrived.
func serveMix(e *env) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var warm, jobs []job
	var srv *nvmserved
	var tracedReplies []reply
	var plainReplies []reply
	var t *tracer
	if e.traced {
		t = newTracer(false)
	}

	setUp := func() error {
		warmSpecs, specs := serveInputs(e.seed)
		var err error
		if warm, err = newJobs(warmSpecs); err != nil {
			return err
		}
		if jobs, err = newJobs(specs); err != nil {
			return err
		}
		if srv, err = startServer(); err != nil {
			return err
		}
		srv.drive(e.check, warm, nil, 0)
		return nil
	}
	timed := func(pass int) error {
		defer func() { srv.stop() }()
		sec := startSection()
		replies := srv.drive(e.check, jobs, nil, 0)
		out.plain = append(out.plain, serveBatch(sec.stop(), replies))
		plainReplies = append(plainReplies, replies...)
		if !e.traced {
			return nil
		}
		// The traced batch needs a server whose result cache is as empty as
		// the untraced batch's was.
		srv.stop()
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		srv.drive(e.check, warm, nil, 0)
		sec = startSection()
		replies = srv.drive(e.check, jobs, t, (pass+1)*100000)
		out.traced = append(out.traced, serveBatch(sec.stop(), replies))
		tracedReplies = append(tracedReplies, replies...)
		return nil
	}
	if err := e.repeat(out, setUp, timed); err != nil {
		return nil, err
	}
	if err := latencyNotes(out, plainReplies); err != nil {
		return nil, err
	}
	if !e.traced {
		return out, nil
	}
	if err := serveLayers(out.layers, tracedReplies); err != nil {
		return nil, err
	}
	out.spans = append(out.spans, t)
	// Per-job fixed costs sit inside the server, out of the client's sight:
	// rebuild each distinct job of the mix once to split them by layer.
	var rb rebuilds
	seen := map[string]bool{}
	for i, j := range jobs {
		if !seen[j.key] {
			seen[j.key] = true
			rb.run(e.check, i, j, false)
		}
	}
	rb.report(out)
	return out, nil
}

func serveBatch(sec sectionResult, replies []reply) batch {
	b := batch{sec: sec, jobs: len(replies)}
	for _, r := range replies {
		b.accesses += r.accesses
	}
	return b
}

func latencies(replies []reply, f func(reply) float64) []float64 {
	out := make([]float64, 0, len(replies))
	for _, r := range replies {
		if r.ok {
			out = append(out, f(r))
		}
	}
	return out
}

func clientMs(r reply) float64 { return float64(r.latency) / 1e6 }

// latencyNotes prints the client latency percentiles of the untraced
// batches with their sample counts.
func latencyNotes(out *outcome, replies []reply) error {
	lat := latencies(replies, clientMs)
	p50, err := percentileOf(lat, 0.50)
	if err != nil {
		return fmt.Errorf("job_p50_ms: %w", err)
	}
	p99, err := percentileOf(lat, 0.99)
	if err != nil {
		return fmt.Errorf("job_p99_ms: %w", err)
	}
	out.note("job_p50_ms %s", p50)
	out.note("job_p99_ms %s", p99)
	return nil
}

func serveLayers(m map[string]float64, replies []reply) error {
	pct := func(name string, q float64, f func(reply) float64) error {
		p, err := percentileOf(latencies(replies, f), q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = p.value
		return nil
	}
	if err := pct("job_p50_ms", 0.50, clientMs); err != nil {
		return err
	}
	if err := pct("job_p99_ms", 0.99, clientMs); err != nil {
		return err
	}
	if err := pct("server.queued_ms_p99", 0.99, func(r reply) float64 { return r.queued }); err != nil {
		return err
	}
	if err := pct("server.run_ms_p50", 0.50, func(r reply) float64 { return r.run }); err != nil {
		return err
	}
	httpMs := func(r reply) float64 { return clientMs(r) - r.queued - r.run }
	if err := pct("server.http_ms_p50", 0.50, httpMs); err != nil {
		return err
	}
	var ok, cached, warmJobs, warmStarted int
	for _, r := range replies {
		if !r.ok {
			continue
		}
		ok++
		if r.cached {
			cached++
		} else if r.warmup {
			warmJobs++
			if r.warm {
				warmStarted++
			}
		}
	}
	m["server.latency_samples"] = float64(ok)
	m["server.cache_hit_ratio"] = ratio(float64(cached), float64(ok))
	m["server.warm_start_ratio"] = ratio(float64(warmStarted), float64(warmJobs))
	return nil
}

// nvmserved is an in-process server behind a loopback listener.
type nvmserved struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	client *http.Client
	url    string
	closed bool
}

func startServer() (*nvmserved, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(server.Options{Workers: 2})
	n := &nvmserved{
		srv:    s,
		http:   &http.Server{Handler: s.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		url:    "http://" + ln.Addr().String() + "/v1/jobs?wait=1",
	}
	go func() { n.served <- n.http.Serve(ln) }()
	return n, nil
}

// stop shuts the HTTP server and the job server down and waits for both.
func (n *nvmserved) stop() {
	if n.closed {
		return
	}
	n.closed = true
	n.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.http.Shutdown(ctx) // a timeout leaves connections open; Serve has returned either way
	<-n.served
	n.srv.Shutdown(10 * time.Second)
}

// drive sends jobs from two closed-loop clients and returns one reply per
// job, in job order. With t set, each round trip is a span whose children
// are the queue and run times the server reports.
func (n *nvmserved) drive(c *checker, jobs []job, t *tracer, idBase int) []reply {
	replies := make([]reply, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sp := -1
				if t != nil {
					sp = t.begin("serve.request", idBase+i, -1)
				}
				r, canon, err := n.post(jobs[i])
				if t != nil {
					t.end(sp)
					s := t.get(sp)
					q := int64(r.queued * 1e6)
					t.add(span{Name: "server.queued", Job: idBase + i, Parent: sp, StartNs: s.StartNs, EndNs: s.StartNs + q})
					t.add(span{Name: "server.run", Job: idBase + i, Parent: sp, StartNs: s.StartNs + q, EndNs: s.StartNs + q + int64(r.run*1e6)})
				}
				r.warmup = jobs[i].spec.Warmup != nil
				r.ok = c.check(jobs[i].key, canon, err)
				replies[i] = r
			}
		}()
	}
	wg.Wait()
	return replies
}

// post submits one job and returns the reply and the result's canonical
// bytes: the response's result object with the indentation removed.
func (n *nvmserved) post(j job) (reply, []byte, error) {
	var r reply
	start := time.Now()
	resp, err := n.client.Post(n.url, "application/json", bytes.NewReader(j.body))
	if err != nil {
		return r, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	if err != nil {
		return r, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sub struct {
		Job    server.JobStatus `json:"job"`
		Result json.RawMessage  `json:"result"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return r, nil, err
	}
	if sub.Job.Hash != j.key {
		return r, nil, fmt.Errorf("reply for job %s", sub.Job.Hash)
	}
	var canon bytes.Buffer
	if err := json.Compact(&canon, sub.Result); err != nil {
		return r, nil, err
	}
	var acc struct {
		Accesses uint64 `json:"accesses"`
	}
	if err := json.Unmarshal(canon.Bytes(), &acc); err != nil {
		return r, nil, err
	}
	r.queued, r.run = sub.Job.QueuedMs, sub.Job.RunMs
	r.cached, r.warm = sub.Job.Cached, sub.Job.WarmStarted
	r.accesses = acc.Accesses
	return r, canon.Bytes(), nil
}

// figures regenerates paper figures through exp.Run one at a time, with an
// observability context, digest and verdict per figure as cmd/experiments
// produces them.
func figures(e *env) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	pool.SetWorkers(1)
	var t *tracer
	if e.traced {
		t = newTracer(false)
	}
	var order []string
	var sim simCounts
	cpuByFig := map[string][]float64{}
	var accuracy float64

	// figure runs one figure and returns the iMC accesses it simulated.
	figure := func(id string, sp int) uint64 {
		sc := exp.QuickScale()
		sc.Obs = obs.New()
		r, err := exp.Run(id, sc)
		var text []byte
		var acc uint64
		if err == nil {
			text = []byte(r.String())
			g := sc.Obs.Digest()
			d := sc.Obs.Dump()
			bottleneck.Analyze(d)
			acc = accessesOfDump(d)
			if sp >= 0 {
				t.setAttr(sp, "events", float64(g.EventsFired))
				t.setAttr(sp, "accesses", float64(acc))
				sim.add(d)
			}
			if id == "fig9e" {
				accuracy, err = meanAccuracy(r)
			}
		}
		if !e.check.check(id, text, err) {
			return 0
		}
		return acc
	}
	setUp := func() error {
		order = figureOrder(e.seed)
		figure(warmFigure, -1)
		return nil
	}
	timed := func(pass int) error {
		sec := startSection()
		var acc uint64
		for _, id := range order {
			acc += figure(id, -1)
		}
		out.plain = append(out.plain, batch{sec.stop(), len(order), acc})
		if !e.traced {
			return nil
		}
		sec = startSection()
		acc = 0
		for i, id := range order {
			sp := t.begin("exp.run", pass*len(order)+i, -1)
			a := figure(id, sp)
			t.end(sp)
			acc += a
			s := t.get(sp)
			cpuByFig[id] = append(cpuByFig[id], float64(s.CPUNs)/1e9)
			out.layers["exp."+id+"_events"] = s.Attrs["events"]
		}
		out.traced = append(out.traced, batch{sec.stop(), len(order), acc})
		return nil
	}
	if err := e.repeat(out, setUp, timed); err != nil {
		return nil, err
	}
	out.note("model_accuracy_pct %.1f", accuracy)
	if e.traced {
		for id, xs := range cpuByFig {
			out.layers["exp."+id+"_cpu_s"] = mean(xs)
		}
		out.layers["model_accuracy_pct"] = accuracy
		simLayers(out.layers, sim)
		out.spans = append(out.spans, t)
	}
	return out, nil
}

// meanAccuracy reads the mean VANS accuracy from Fig 9e's table, in percent.
func meanAccuracy(r *exp.Result) (float64, error) {
	for _, tbl := range r.Tables {
		for _, row := range tbl.Rows {
			if len(row) == 2 && row[0] == "mean" {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					return 0, fmt.Errorf("fig9e mean accuracy %q: %w", row[1], err)
				}
				return v * 100, nil
			}
		}
	}
	return 0, fmt.Errorf("fig9e: no mean accuracy row")
}
