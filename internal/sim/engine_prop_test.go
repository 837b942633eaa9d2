package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// ---------------------------------------------------------------- oracle
//
// The reference scheduler is the pre-calendar order in its plainest form: a
// boxed container/heap ordered by (at, seq) that clamps requests in the past
// to Now, as Engine does. The property test runs each randomized scenario
// once on the oracle and once on the real Engine; every random draw happens
// where an event fires, so both runs draw the same numbers exactly as long
// as they fire the same events in the same order, and the first misordered
// event shows as a differing firing.

type oracleEvent struct {
	at  Cycle
	seq uint64
	fn  func()
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// oracle runs the oracle heap with Engine's clock. It has no parked polls,
// so StepUntil has no tick to pass.
type oracle struct {
	h     oracleHeap
	now   Cycle
	seq   uint64
	fired uint64
}

func (o *oracle) Now() Cycle { return o.now }
func (o *oracle) Schedule(at Cycle, fn func()) {
	o.seq++
	heap.Push(&o.h, oracleEvent{at: max(at, o.now), seq: o.seq, fn: fn})
}
func (o *oracle) After(delay Cycle, fn func()) { o.Schedule(o.now+delay, fn) }
func (o *oracle) AfterFn(delay Cycle, fn func(any), arg any) {
	o.After(delay, func() { fn(arg) })
}
func (o *oracle) Step() bool {
	if o.h.Len() == 0 {
		return false
	}
	ev := heap.Pop(&o.h).(oracleEvent)
	o.now = ev.at
	o.fired++
	ev.fn()
	return true
}
func (o *oracle) Run() {
	for o.Step() {
	}
}
func (o *oracle) RunWhile(cond func() bool) {
	for cond() && o.Step() {
	}
}
func (o *oracle) RunUntil(deadline Cycle) {
	for o.h.Len() > 0 && o.h[0].at <= deadline {
		o.Step()
	}
	o.now = max(o.now, deadline)
}
func (o *oracle) StepUntil(limit Cycle) bool {
	return o.h.Len() > 0 && o.h[0].at <= limit && o.Step()
}

// scheduler is what the scenarios drive: an Engine or the oracle.
type scheduler interface {
	Now() Cycle
	Schedule(at Cycle, fn func())
	After(delay Cycle, fn func())
	AfterFn(delay Cycle, fn func(any), arg any)
	Step() bool
	Run()
	RunWhile(cond func() bool)
	RunUntil(deadline Cycle)
	StepUntil(limit Cycle) bool
}

// clockOf returns s's (Now, seq) pair.
func clockOf(s scheduler) clock {
	if e, ok := s.(*Engine); ok {
		return clock{e.now, e.seq}
	}
	o := s.(*oracle)
	return clock{o.now, o.seq}
}

type firing struct {
	at Cycle
	id int
}

// The calendar's horizon and bucket width, in cycles.
const (
	horizon     = nBuckets << bucketShift
	bucketWidth = 1 << bucketShift
)

// Scenario shapes: near keeps every cycle within a few hundred of Now, as
// the model's DRAM and bus hops do; far spans several horizons, so events
// reach the overflow heap, the ring laps and the heap top must be compared
// with the ring; edge aims at the horizon's edges and piles out-of-order
// cycles into single buckets.
const (
	shapeNear = iota
	shapeFar
	shapeEdge
	nShapes
)

// TestEnginePropertyVsOracle checks the engine's firing sequence against
// the container/heap oracle over randomized schedules of each shape
// (eventScenario), then checks parked polls (pollScenario): the same
// scenario runs with literal AfterFn re-arming polls on the oracle and on
// the engine, and with Poll on the engine, and both engine runs must fire
// what the oracle fires. Each trial runs the poll scenario twice: with
// one-period polls, and with two-phase polls whose re-arming form
// alternates two delays. Trials cycle through the shapes and, within each,
// through the three ways to drain to empty: Run, RunWhile and a Step loop.
func TestEnginePropertyVsOracle(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		shape := trial / 3 % nShapes
		want := eventScenario(t, trial, shape, &oracle{})
		got := eventScenario(t, trial, shape, NewEngine())
		if len(got) != len(want) {
			t.Fatalf("trial %d (shape %d): fired %d events, oracle fired %d", trial, shape, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (shape %d): firing %d: engine %+v, oracle %+v", trial, shape, i, got[i], want[i])
			}
		}

		// Polls: periods up to 9 cycles for near trials; for the others
		// up to 9×512, beyond the horizon, so ticks cross laps.
		scale := Cycle(1)
		if shape != shapeNear {
			scale = 512
		}
		for _, twoPhase := range []bool{false, true} {
			checkPollScenario(t, fmt.Sprintf("trial %d (two-phase %v)", trial, twoPhase), func(form pollForm) pollRun {
				return pollScenario(t, int64(trial), form, scale, twoPhase)
			})
		}
	}
}

// checkPollScenario runs a poll scenario in its three forms and compares the
// re-arming and parked engine runs with the oracle, and the parked run's
// peak pending count with the re-arming run's.
func checkPollScenario(t *testing.T, name string, scenario func(pollForm) pollRun) {
	t.Helper()
	ref := scenario(pollOracle)
	var rearm pollRun
	for _, form := range []pollForm{pollRearm, pollParked} {
		run := scenario(form)
		if len(run.firings) != len(ref.firings) {
			t.Fatalf("%s: %s run fired %d real events, oracle %d",
				name, form, len(run.firings), len(ref.firings))
		}
		for i := range run.firings {
			if run.firings[i] != ref.firings[i] {
				t.Fatalf("%s: real firing %d: %s %+v, oracle %+v",
					name, i, form, run.firings[i], ref.firings[i])
			}
		}
		if len(run.cuts) != len(ref.cuts) {
			t.Fatalf("%s: %s run made %d cuts, oracle %d", name, form, len(run.cuts), len(ref.cuts))
		}
		for i := range run.cuts {
			if run.cuts[i] != ref.cuts[i] {
				t.Fatalf("%s: at cut %d %s (now, seq) = %+v, oracle %+v",
					name, i, form, run.cuts[i], ref.cuts[i])
			}
		}
		if run.now != ref.now || run.seq != ref.seq {
			t.Fatalf("%s: %s run ended at (now %d, seq %d), oracle at (%d, %d)",
				name, form, run.now, run.seq, ref.now, ref.seq)
		}
		switch form {
		case pollRearm:
			if run.fired != ref.fired {
				t.Fatalf("%s: re-arming run fired %d events, oracle %d", name, run.fired, ref.fired)
			}
			rearm = run
		case pollParked:
			if ref.passes > 0 && run.fired >= ref.fired {
				t.Fatalf("%s: parked run fired %d events, re-arming run %d: no tick was passed",
					name, run.fired, ref.fired)
			}
			if run.peak != rearm.peak {
				t.Fatalf("%s: parked run's PeakPending %d, re-arming run's %d", name, run.peak, rearm.peak)
			}
		}
	}
}

// eventScenario drives one randomized schedule of the given shape on s and
// returns its firings. A batch of initial events is drained partway with
// RunUntil, more are scheduled (some in the past, which s must clamp to its
// advanced clock; far and edge trials repeat this at deadlines that fall
// mid-lap), and the rest drains by Run, RunWhile or a Step loop. A firing
// event may schedule a child, re-entrantly, at a distance its shape draws.
func eventScenario(t *testing.T, trial, shape int, s scheduler) []firing {
	rng := rand.New(rand.NewSource(int64(trial) + 1))
	var got []firing
	nextID := 0
	// offset draws how far after now a child asks to fire.
	offset := func(now Cycle) Cycle {
		if shape == shapeNear {
			return Cycle(rng.Intn(20))
		}
		base := now &^ (bucketWidth - 1)
		switch rng.Intn(4) {
		case 0:
			return Cycle(rng.Intn(20))
		case 1: // H−1, H or H+1 past now's bucket base
			return base + horizon - 1 + Cycle(rng.Intn(3)) - now
		case 2: // within or beyond the next lap
			return Cycle(rng.Intn(3 * horizon))
		default: // a cycle of now's bucket or the next, maybe before now
			return base + Cycle(rng.Intn(2*bucketWidth)) - now // wraps; now+offset does not
		}
	}
	var schedule func(at Cycle, depth int)
	schedule = func(at Cycle, depth int) {
		id := nextID
		nextID++
		reentrant := depth < 2 && rng.Intn(4) == 0
		s.Schedule(at, func() {
			got = append(got, firing{s.Now(), id})
			if reentrant {
				schedule(s.Now()+offset(s.Now()), depth+1)
			}
		})
	}
	// burst schedules n events into the bucket holding at, in random
	// cycle order, some sharing a cycle.
	burst := func(at Cycle, n int) {
		base := at &^ (bucketWidth - 1)
		for i := 0; i < n; i++ {
			schedule(base+Cycle(rng.Intn(bucketWidth)), 0)
		}
	}
	// batch schedules n events around now.
	batch := func(n int) {
		now := s.Now()
		base := now &^ (bucketWidth - 1)
		for i := 0; i < n; i++ {
			switch {
			case shape == shapeNear:
				schedule(Cycle(rng.Intn(300)), 0)
			case shape == shapeFar:
				schedule(now+Cycle(rng.Intn(5*horizon))-Cycle(rng.Intn(int(now%horizon)+1)), 0)
			case rng.Intn(2) == 0:
				schedule(base+horizon-1+Cycle(rng.Intn(3)), 0)
			default:
				burst(now+Cycle(rng.Intn(2*horizon)), 1+rng.Intn(6))
			}
		}
	}

	// A batch of initial events, some at cycle 0, some beyond.
	n := 5 + rng.Intn(40)
	if shape == shapeNear {
		for i := 0; i < n; i++ {
			schedule(Cycle(rng.Intn(200)), 0)
		}
		s.RunUntil(Cycle(60 + rng.Intn(80)))
		batch(rng.Intn(20))
	} else {
		batch(n)
		for cuts := 1 + rng.Intn(3); cuts > 0; cuts-- {
			s.RunUntil(s.Now() + Cycle(rng.Intn(2*horizon)))
			batch(rng.Intn(20))
		}
	}
	switch trial % 3 {
	case 0:
		s.Run()
	case 1:
		s.RunWhile(func() bool { return true })
	default:
		for s.Step() {
		}
		if s.Step() {
			t.Fatalf("trial %d: Step reported an event on an empty %T", trial, s)
		}
	}
	return got
}

// pollRun is what a poll scenario observed.
type pollRun struct {
	firings []firing // real work: ordinary events and polls that acted
	cuts    []clock  // the clock after each StepUntil cut
	now     Cycle
	seq     uint64
	fired   uint64
	peak    int // PeakPending (engine forms only)
	passes  int // ticks the re-arming form would have fired with nothing to do
}

// finish records s's final clock, its fired count and, on an engine, its
// peak pending count.
func (run *pollRun) finish(s scheduler) {
	c := clockOf(s)
	run.now, run.seq = c.now, c.seq
	if e, ok := s.(*Engine); ok {
		run.fired, run.peak = e.Fired(), e.PeakPending()
	} else {
		run.fired = s.(*oracle).fired
	}
}

// clock is an engine's (Now, seq) pair.
type clock struct {
	now Cycle
	seq uint64
}

// pollForm is how pollScenario runs its polls.
type pollForm int

const (
	pollOracle pollForm = iota // AfterFn re-arming polls on the oracle
	pollRearm                  // AfterFn re-arming polls on an Engine
	pollParked                 // Poll on an Engine
)

func (f pollForm) String() string {
	return [...]string{"oracle", "re-arming", "parked"}[f]
}

// pollScenario drives one randomized schedule of ordinary events and polls.
// In the re-arming forms each poll is a callback that re-arms itself with
// AfterFn(period) while it has nothing to do; in the parked form it is a
// Poll, woken by the mutators that give it work. Everything random is drawn
// only where real work happens, so all forms draw the same numbers as long
// as they fire the same real events in the same order. Every cycle drawn
// (periods, due cycles, delays, deadlines) is scaled by scale.
//
// With twoPhase, each poll has two periods: the k-th no-op tick since the
// poll last acted re-arms with the k-th period alternately, and a poll that
// acts starts over. Its parked form is InitTwoPhase, and its logged action
// carries the parity of the tick, Passed in the parked form. A parked
// two-phase tick that fires for real must act, since parking again starts
// the alternation over, so only the mutator that hands a poll work wakes
// one; its wakes land on ticks of either parity, and it acts after an odd
// number of passed ticks as often as after an even one.
//
// A poll acts when it has work or its due cycle has come. Acting logs a
// firing, may schedule a child event less than one period ahead (so it can
// land on a tick cycle), and either stops the poll for good or picks a new
// due cycle: a random later one, or none, with a mutator scheduled to hand
// it work. Mutators set work, move due cycles either way, or wake the
// parked form for nothing. The run drains partway with RunUntil, then pumps
// Step with an actor that submits between steps (accepted only while it
// holds tokens, so a refused submit has no effect), optionally cuts power
// with StepUntil the way mem.Driver.RunWindowUntil does, and finishes
// with Run. Before each of the pump's steps on an engine, NextAt must name
// the cycle that step fires at.
//
// Ordinary events and acting polls also push slots on two lanes, on the
// cycles of ticks and events as often as between them, some in the past:
// a literal no-op event in the re-arming forms, a Lane slot in the parked
// form. The run must end with every slot passed.
func pollScenario(t *testing.T, seed int64, form pollForm, scale Cycle, twoPhase bool) pollRun {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	in := func(n int) Cycle { return Cycle(rng.Intn(n * int(scale))) }
	var e *Engine
	var s scheduler = &oracle{}
	if form != pollOracle {
		e = NewEngine()
		s = e
	}
	parked := form == pollParked
	var run pollRun

	var lanes [2]Lane
	var laneLast [2]Cycle
	noop := func() { run.passes++ }
	for i := range lanes {
		if parked {
			lanes[i].Init(e, nil)
		}
	}
	// slot pushes a slot on a random lane, no earlier than the lane's last.
	slot := func() {
		i := rng.Intn(len(lanes))
		at := s.Now() + in(12)
		if rng.Intn(4) == 0 {
			at = s.Now() - min(s.Now(), in(6)) // in the past: clamped to now
		}
		at = max(at, laneLast[i])
		laneLast[i] = max(at, s.Now())
		if parked {
			lanes[i].Push(at)
		} else {
			s.Schedule(at, noop)
		}
	}

	n := 1 + rng.Intn(4)
	type pollState struct {
		id     int
		period [2]Cycle
		work   bool
		due    Cycle
		acts   int
		ticks  int // no-op ticks since the poll last acted (re-arming forms)
		poll   Poll
	}
	ps := make([]*pollState, n)
	nextID := 1000
	var tick func(any)
	// rearm stands for the no-op branch: AfterFn(delay, tick, p) in the
	// re-arming forms, a park in the other.
	rearm := func(p *pollState, delay Cycle) {
		if !parked {
			s.AfterFn(delay, tick, p)
			return
		}
		due := p.due
		if p.work {
			due = 0
		}
		p.poll.Park(delay, due)
	}
	wake := func(p *pollState) {
		if parked {
			p.poll.Wake()
		}
	}
	tokens := 0
	var event func(id int, depth int) func()
	event = func(id int, depth int) func() {
		return func() {
			run.firings = append(run.firings, firing{s.Now(), id})
			if rng.Intn(3) == 0 {
				tokens++
			}
			for k := rng.Intn(3); k > 0; k-- {
				slot()
			}
			if depth < 2 && rng.Intn(3) == 0 {
				nextID++
				s.After(in(12), event(nextID, depth+1))
			}
		}
	}
	mutate := func(p *pollState, kind int) func() {
		if twoPhase {
			kind = 0
		}
		return func() {
			run.firings = append(run.firings, firing{s.Now(), -1 - p.id})
			switch kind {
			case 0:
				p.work = true
				wake(p)
			case 1:
				due := s.Now() + in(40)
				if due < p.due {
					wake(p) // a due cycle moved earlier
				}
				p.due = due
			default:
				wake(p) // early: the tick finds nothing to do
			}
		}
	}
	tick = func(a any) {
		p := a.(*pollState)
		k := p.ticks
		if parked {
			k = p.poll.Passed()
		}
		if !p.work && s.Now() < p.due {
			if !parked {
				run.passes++
			}
			p.ticks++
			rearm(p, p.period[k&1])
			return
		}
		id := p.id
		if twoPhase {
			id += 100 * (k & 1)
		}
		run.firings = append(run.firings, firing{s.Now(), id})
		p.work = false
		p.acts++
		p.ticks = 0
		if rng.Intn(2) == 0 {
			slot()
		}
		if rng.Intn(2) == 0 {
			nextID++
			s.After(Cycle(rng.Intn(int(p.period[1]))), event(nextID, 1))
		}
		if p.acts >= 4 {
			return // stopped for good
		}
		if rng.Intn(3) == 0 {
			p.due = Never
			s.After(1+in(60), mutate(p, 0))
		} else {
			p.due = s.Now() + in(80)
		}
		rearm(p, p.period[1])
	}
	for i := range ps {
		period := 1 + in(9)
		p := &pollState{id: i, period: [2]Cycle{period, period}, due: in(100)}
		if twoPhase {
			p.period[1] = 1 + in(9)
		}
		if parked {
			p.poll.InitTwoPhase(e, p.period[0], p.period[1], tick, p)
		}
		ps[i] = p
		rearm(p, 1+in(5))
	}
	for i := 0; i < 5+rng.Intn(20); i++ {
		nextID++
		s.Schedule(in(150), event(nextID, 0))
	}
	for i := 0; i < rng.Intn(12); i++ {
		p := ps[rng.Intn(n)]
		s.Schedule(in(150), mutate(p, rng.Intn(3)))
	}

	// Drain partway; the caller then acts at the deadline.
	s.RunUntil(20*scale + in(60))
	p := ps[rng.Intn(n)]
	s.After(Cycle(rng.Intn(int(p.period[1]))), mutate(p, rng.Intn(3)))

	// A pump: submit until refused, then step unless done. A submit spends
	// a token and schedules work or mutates a poll on the spot; the pump
	// decides whether it is done before it steps, as mem.Driver's pumps do,
	// since a parked form's step passes ticks the re-arming forms' step
	// fires one at a time.
	submit := func() bool {
		if tokens == 0 {
			return false
		}
		tokens--
		nextID++
		if rng.Intn(2) == 0 {
			s.After(in(8), event(nextID, 1))
		} else {
			p := ps[rng.Intn(n)]
			mutate(p, rng.Intn(3))()
		}
		return true
	}
	for target := len(run.firings) + 10 + rng.Intn(30); ; {
		for submit() {
		}
		if len(run.firings) >= target {
			break
		}
		at, ok := Cycle(0), false
		if e != nil {
			at, ok = e.NextAt()
		}
		if !s.Step() {
			break
		}
		if e != nil && (!ok || e.Now() != at) {
			t.Fatalf("seed %d: %s form: NextAt said %d,%v, the step fired at %d", seed, form, at, ok, e.Now())
		}
	}

	// A power-fail cut: fire every real event at or before the cut, passing
	// the parked ticks up to it.
	if seed%2 == 0 {
		limit := s.Now() + in(50)
		for s.StepUntil(limit) {
		}
		run.cuts = append(run.cuts, clockOf(s))
	}
	s.Run()
	if parked && (lanes[0].Pending() != 0 || lanes[1].Pending() != 0 || e.Pending() != 0) {
		t.Fatalf("seed %d: slots left after Run: lanes %d and %d, Pending %d",
			seed, lanes[0].Pending(), lanes[1].Pending(), e.Pending())
	}
	run.finish(s)
	return run
}

// TestStoreShapedPollsVsOracle runs storeShapeScenario in its three forms,
// as TestEnginePropertyVsOracle runs pollScenario, and checks that the
// trials between them put ticks of both polls on one cycle, land due cycles
// and StepUntil cuts inside runs of passed ticks, and pass hundreds of
// ticks in one parking.
func TestStoreShapedPollsVsOracle(t *testing.T) {
	var cov shapeCoverage
	for trial := 0; trial < 40; trial++ {
		checkPollScenario(t, fmt.Sprintf("store-shaped trial %d", trial), func(form pollForm) pollRun {
			var c *shapeCoverage
			if form == pollOracle {
				c = &cov
			}
			return storeShapeScenario(t, int64(trial), form, c)
		})
	}
	t.Logf("coverage %+v", cov)
	if cov.sameCycle == 0 || cov.dueInRun == 0 || cov.cutInRun == 0 || cov.longestRun < 200 {
		t.Fatalf("coverage %+v: want ticks of both polls on one cycle, due cycles and cuts inside runs of passed ticks, and a run of 200 or more", cov)
	}
}

// shapeCoverage is what storeShapeScenario's re-arming oracle run saw.
type shapeCoverage struct {
	sameCycle  int // no-op ticks on the cycle of the other poll's no-op tick just before
	dueInRun   int // polls that acted on their due cycle after passing ticks
	cutInRun   int // StepUntil cuts whose last event was a no-op tick
	longestRun int // most no-op ticks of one poll between two of its acts
}

// storeShapeScenario is store-write's shape in small: the DIMM's LSQ drain,
// a one-period poll of 16 cycles, and the iMC's refused-line retry, a
// two-phase poll of (13, 40), stay parked for hundreds of ticks between
// sparse real events, 20 to 420 cycles apart. Every few hundred cycles
// both polls tick on one cycle. A poll acts when an event hands it work or
// when its due cycle, drawn up to 3,000 cycles ahead, comes inside a run of
// passed ticks; a poll with no due cycle gets its work from an event
// scheduled when it parked. Events also move the drain's due cycle either
// way, waking it when it moves earlier; the retry, whose woken tick must
// act, is woken only with work. The run drains to a RunUntil deadline,
// then pumps Step (checking NextAt before each step) to a count of real
// firings and cuts with StepUntil at a cycle up to 600 past the pump's
// stop, three times, and finishes with Run. Everything random is drawn
// where real work happens or between pumps, so every form draws the same
// numbers while it fires the same real events.
func storeShapeScenario(t *testing.T, seed int64, form pollForm, cov *shapeCoverage) pollRun {
	rng := rand.New(rand.NewSource(seed*104729 + 5))
	var e *Engine
	var s scheduler = &oracle{}
	if form != pollOracle {
		e = NewEngine()
		s = e
	}
	parked := form == pollParked
	var run pollRun
	if cov == nil {
		cov = &shapeCoverage{} // seen only by the caller's oracle run
	}

	type pollState struct {
		id       int
		period   [2]Cycle
		twoPhase bool
		work     bool
		due      Cycle
		acts     int
		ticks    int // no-op ticks since the poll last acted (re-arming forms)
		poll     Poll
	}
	drain := &pollState{id: 0, period: [2]Cycle{16, 16}, due: Cycle(rng.Intn(3000))}
	retry := &pollState{id: 1, period: [2]Cycle{13, 40}, twoPhase: true, due: Never}
	nextID := 0
	lastTick, lastPoll, lastWasTick := Never, -1, false
	var tick func(any)
	rearm := func(p *pollState, delay Cycle) {
		if !parked {
			s.AfterFn(delay, tick, p)
			return
		}
		due := p.due
		if p.work {
			due = 0
		}
		p.poll.Park(delay, due)
	}
	handWork := func(p *pollState) {
		p.work = true
		if parked {
			p.poll.Wake()
		}
	}
	log := func(id int) {
		run.firings = append(run.firings, firing{s.Now(), id})
		lastWasTick = false
	}
	leaf := func() {
		nextID++
		log(nextID)
	}
	workFor := func(p *pollState) func() {
		return func() {
			log(-1 - p.id)
			handWork(p)
		}
	}
	events := 0
	var event func()
	event = func() {
		nextID++
		log(nextID)
		switch rng.Intn(6) {
		case 0:
			handWork(drain)
		case 1:
			handWork(retry)
		case 2:
			due := s.Now() + Cycle(rng.Intn(3000))
			if due < drain.due && parked {
				drain.poll.Wake() // the tick re-parks with the new due cycle
			}
			drain.due = due
		}
		if events++; events < 40 {
			s.After(Cycle(20+rng.Intn(400)), event)
		}
	}
	tick = func(a any) {
		p := a.(*pollState)
		k := p.ticks
		if parked {
			k = p.poll.Passed()
		}
		if !p.work && s.Now() < p.due {
			if !parked {
				run.passes++
				if s.Now() == lastTick && lastPoll != p.id {
					cov.sameCycle++
				}
				lastTick, lastPoll, lastWasTick = s.Now(), p.id, true
			}
			p.ticks++
			rearm(p, p.period[k&1])
			return
		}
		id := 1000 + p.id
		if p.twoPhase {
			id += 100 * (k & 1)
		}
		if !p.work && k > 0 {
			cov.dueInRun++
		}
		cov.longestRun = max(cov.longestRun, k)
		log(id)
		p.work = false
		p.acts++
		p.ticks = 0
		if rng.Intn(2) == 0 {
			s.After(Cycle(rng.Intn(int(p.period[1]))), leaf)
		}
		if p.acts >= 6 {
			return // stopped for good
		}
		if rng.Intn(3) == 0 {
			p.due = Never
			s.After(Cycle(100+rng.Intn(3000)), workFor(p))
		} else {
			p.due = s.Now() + Cycle(rng.Intn(3000))
		}
		rearm(p, p.period[1])
	}
	if parked {
		drain.poll.Init(e, drain.period[0], tick, drain)
		retry.poll.InitTwoPhase(e, retry.period[0], retry.period[1], tick, retry)
	}
	rearm(drain, 16)
	rearm(retry, 40)
	s.After(Cycle(100+rng.Intn(3000)), workFor(retry))
	s.Schedule(Cycle(rng.Intn(100)), event)

	s.RunUntil(Cycle(200 + rng.Intn(2000)))
	for cuts := 0; cuts < 3; cuts++ {
		for target := len(run.firings) + 3 + rng.Intn(10); len(run.firings) < target; {
			at, ok := Cycle(0), false
			if e != nil {
				at, ok = e.NextAt()
			}
			if !s.Step() {
				break
			}
			if e != nil && (!ok || e.Now() != at) {
				t.Fatalf("seed %d: %s form: NextAt said %d,%v, the step fired at %d", seed, form, at, ok, e.Now())
			}
		}
		limit := s.Now() + Cycle(rng.Intn(600))
		for s.StepUntil(limit) {
		}
		if lastWasTick {
			cov.cutInRun++
		}
		run.cuts = append(run.cuts, clockOf(s))
	}
	s.Run()
	run.finish(s)
	return run
}

// TestWakeReusesTheParkedSlot pins why a wake must not schedule a fresh
// event: an event scheduled at the tick's cycle after the poll parked comes
// after the tick in the re-arming form's order, so the woken tick must fire
// first. A wake that took a new sequence number would fire it second.
func TestWakeReusesTheParkedSlot(t *testing.T) {
	for _, parked := range []bool{false, true} {
		e := NewEngine()
		var got []string
		work := false
		var p Poll
		var tick func(any)
		tick = func(any) {
			if !work {
				if parked {
					p.Park(10, Never)
				} else {
					e.AfterFn(10, tick, nil)
				}
				return
			}
			got = append(got, "tick")
		}
		p.Init(e, 10, tick, nil)
		e.Schedule(5, func() {
			// The poll's next tick is at 10; this event takes a later seq
			// at the same cycle, then the work that wakes the poll arrives.
			e.Schedule(10, func() { got = append(got, "event") })
			work = true
			p.Wake()
		})
		if parked {
			p.Park(10, Never)
		} else {
			e.AfterFn(10, tick, nil)
		}
		e.Run()
		if len(got) != 2 || got[0] != "tick" || got[1] != "event" || e.Now() != 10 {
			t.Fatalf("parked=%v: fired %v, ending at %d; want [tick event] at 10", parked, got, e.Now())
		}
	}
}

// TestParkedPollPendingAndNextAt pins how a parked poll shows to pumps and
// cut drivers: it counts as one pending event, NextAt reports only the tick
// it is due to fire, and StepUntil short of that tick moves it along its
// grid without firing.
func TestParkedPollPendingAndNextAt(t *testing.T) {
	e := NewEngine()
	fired := 0
	var p Poll
	p.Init(e, 4, func(any) { fired++ }, nil)
	p.Park(3, 18) // ticks at 3, 7, 11, 15, 19: the first due is 19
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if at, ok := e.NextAt(); !ok || at != 19 {
		t.Fatalf("NextAt = %d,%v, want 19,true", at, ok)
	}
	if e.StepUntil(12) {
		t.Fatal("StepUntil(12) fired an event; the first due tick is at 19")
	}
	if e.Now() != 11 || e.seq != 4 || fired != 0 {
		t.Fatalf("after StepUntil(12): now %d seq %d fired %d, want 11 4 0", e.Now(), e.seq, fired)
	}
	p.Wake()
	if at, ok := e.NextAt(); !ok || at != 15 {
		t.Fatalf("NextAt after Wake = %d,%v, want 15,true", at, ok)
	}
	e.Run()
	if fired != 1 || e.Now() != 15 || e.Pending() != 0 || e.Fired() != 1 {
		t.Fatalf("fired %d at %d (pending %d, Fired %d), want 1 at 15 (0, 1)",
			fired, e.Now(), e.Pending(), e.Fired())
	}
}

// TestTwoPhasePollGrid pins a two-phase poll's grid: from each Park its
// ticks re-arm with the first period and the second alternately, Passed
// counts the ticks passed since that Park, and NextAt finds the first tick
// at or after the due cycle on either phase.
func TestTwoPhasePollGrid(t *testing.T) {
	e := NewEngine()
	type fire struct {
		at     Cycle
		passed int
	}
	var got []fire
	var p Poll
	p.InitTwoPhase(e, 3, 5, func(any) {
		got = append(got, fire{e.Now(), p.Passed()})
		if len(got) == 1 {
			p.Park(2, 20) // ticks at 7, 10, 15, 18, 23: the first due is 23
		}
	}, nil)
	p.Park(2, Never) // ticks at 2, 5, 10, 13, ...
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported a tick of a poll only a wake can make due")
	}
	if e.StepUntil(3) || e.Now() != 2 || p.Passed() != 1 {
		t.Fatalf("after StepUntil(3): now %d, passed %d; want 2 and 1, nothing fired", e.Now(), p.Passed())
	}
	p.Wake()
	if at, ok := e.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt after Wake = %d,%v, want 5,true", at, ok)
	}
	if !e.Step() {
		t.Fatal("the woken tick did not fire")
	}
	if at, ok := e.NextAt(); !ok || at != 23 {
		t.Fatalf("NextAt after the re-park = %d,%v, want 23,true", at, ok)
	}
	e.Run()
	if len(got) != 2 || got[0] != (fire{5, 1}) || got[1] != (fire{23, 4}) {
		t.Fatalf("fired %+v, want [{5 1} {23 4}]", got)
	}
}

// TestSameCycleFIFOInterleavesWithHeap pins the ordering rule between
// events scheduled for a cycle ahead of time and events scheduled at or
// before it once the clock is there: scheduling order (seq) decides, though
// the second kind is appended to a bucket the first kind already fills.
func TestSameCycleFIFOInterleavesWithHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	// Three events at cycle 10 (seq 1, 2, 3). The second one, while firing,
	// schedules two same-cycle events (seq 4 and 5) — the remaining event
	// (seq 3) must still fire before them.
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(10, func() {
		// Now() == 10: these join cycle 10 with seq 4 and 5.
		e.Schedule(10, func() { got = append(got, 4) })
		e.Schedule(3, func() { got = append(got, 5) }) // past: clamped to 10
	})
	e.Schedule(10, func() { got = append(got, 3) }) // seq 3
	e.Run()
	want := []int{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleInPastFiresBeforeAdvancing verifies that an event scheduled
// behind the clock fires at Now, before any later event.
func TestScheduleInPastFiresBeforeAdvancing(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	e.Schedule(100, func() {
		e.Schedule(40, func() { order = append(order, e.Now()) }) // past
		e.Schedule(120, func() { order = append(order, e.Now()) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 100 || order[1] != 120 {
		t.Fatalf("got firings at %v, want [100 120]", order)
	}
}

// TestRunUntilStopsAtExactCut models the power-fail cut: RunUntil must fire
// everything at or before the cut cycle (including same-cycle events
// created during the drain) and nothing after, leaving Now at the cut.
func TestRunUntilStopsAtExactCut(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.Schedule(50, func() {
		fired = append(fired, e.Now())
		// Same-cycle follow-up right at the cut: still inside the window.
		e.Schedule(50, func() { fired = append(fired, e.Now()) })
		e.Schedule(51, func() { t.Error("event after the cut fired") })
	})
	e.Schedule(49, func() { fired = append(fired, e.Now()) })
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d after RunUntil(50)", e.Now())
	}
	if len(fired) != 3 || fired[0] != 49 || fired[1] != 50 || fired[2] != 50 {
		t.Fatalf("fired at %v, want [49 50 50]", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the post-cut event still queued", e.Pending())
	}
	// The survivor fires once the deadline moves.
	if at, ok := e.NextAt(); !ok || at != 51 {
		t.Fatalf("NextAt = %d,%v, want 51,true", at, ok)
	}
}

// TestNextAtEmptyQueue pins NextAt's empty-queue contract, including after a
// drain (the ring must report empty once consumed).
func TestNextAtEmptyQueue(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextAt(); ok || at != 0 {
		t.Fatalf("NextAt on fresh engine = %d,%v, want 0,false", at, ok)
	}
	e.Schedule(0, func() {}) // at the current cycle
	e.Schedule(7, func() {})
	if at, ok := e.NextAt(); !ok || at != 0 {
		t.Fatalf("NextAt = %d,%v, want 0,true (the current cycle)", at, ok)
	}
	e.Run()
	if at, ok := e.NextAt(); ok || at != 0 {
		t.Fatalf("NextAt after drain = %d,%v, want 0,false", at, ok)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestScheduleFnOrdersWithSchedule verifies the two scheduling forms share
// one (at, seq) order and that AfterFn delivers its argument.
func TestScheduleFnOrdersWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.ScheduleFn(10, push, 1)
	e.Schedule(10, func() { got = append(got, 2) })
	e.AfterFn(10, push, 3)
	e.Schedule(5, func() { got = append(got, 0) })
	e.Run()
	for i, v := range got {
		if i != v {
			t.Fatalf("got %v, want [0 1 2 3]", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %v, want [0 1 2 3]", got)
	}
}

// TestEventSize pins the record the ring stores, the node, at six words on
// 64-bit hosts. The ring never moves a node: a push writes its fields once
// and a pop reads the callback once, so its size costs no copies, but it
// sets how much of the slab every bucket walk, push and pop touches. With
// one callback form the event is (at, seq, fn, arg), 40 bytes, and its
// 4-byte link rounds the node up to 48; a second callback field would take
// 56.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("node layout is pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(event{}); n != 40 {
		t.Fatalf("event is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(node{}); n != 48 {
		t.Fatalf("node is %d bytes, want 48", n)
	}
}
