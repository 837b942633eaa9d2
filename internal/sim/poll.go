package sim

// Poll is a parked poll: the engine's stand-in for a callback that, while it
// has nothing to do, re-arms itself with AfterFn(period, fn, arg) every
// period cycles. Such a callback spends an event, a push and a pop, and a
// sequence number per tick to learn that nothing changed. A parked poll
// keeps only its next tick's (cycle, seq) slot. When the engine's order
// reaches that slot and the tick is not due, the engine passes it: it
// spends one sequence number and moves the slot one period along, exactly
// as the re-arm would have, but pushes, pops and fires nothing.
//
// A two-phase poll (InitTwoPhase) stands for a pair of callbacks that
// re-arm each other with two different delays, such as a retry that takes
// a bus and then offers a line: its ticks alternate the two periods, and
// the owner reads Passed to learn which phase a woken tick is and what the
// passed ticks would have done. Park starts the alternation over, so a
// woken two-phase tick must act as its phase's callback would; parking
// again with nothing done is exact only for a one-period poll.
//
// A tick is due, and fires fn(arg) for real in its slot, once its cycle
// reaches the poll's due cycle. The owner sets that cycle when it parks the
// poll (a time-based trigger, Never for none) and calls Wake when an input
// of fn's decision changes; a wake makes the next tick due. The owner must
// wake the poll whenever the tick might do something: an early wake is
// always exact (the tick finds nothing to do and parks again), a late one
// never is.
//
// A wake reuses the slot the re-arming callback would hold rather than
// scheduling a fresh event: a fresh sequence number would order the woken
// tick after events its re-arming form precedes (DESIGN.md §9).
//
// The zero Poll is unusable; Init or InitTwoPhase binds it to an engine and
// callback.
type Poll struct {
	eng *Engine
	fn  func(any)
	arg any
	// period holds the delays the ticks re-arm with: the k-th tick after
	// Park (counting from 0) moves its slot period[k&1] along.
	period [2]Cycle

	// at and seq are the next tick's slot; due is the first cycle at which
	// a tick fires for real. passed counts the ticks passed since Park.
	at     Cycle
	seq    uint64
	due    Cycle
	passed int
	// idx is one plus the poll's index in eng.parked; 0 when not parked.
	idx int
}

// Init binds p to eng: while parked, it ticks every period cycles and a
// due tick runs fn(arg).
func (p *Poll) Init(eng *Engine, period Cycle, fn func(any), arg any) {
	p.InitTwoPhase(eng, period, period, fn, arg)
}

// InitTwoPhase binds p to eng as a two-phase poll: while parked, its ticks
// re-arm with first and second alternately, the first tick after Park with
// first, and a due tick runs fn(arg).
func (p *Poll) InitTwoPhase(eng *Engine, first, second Cycle, fn func(any), arg any) {
	*p = Poll{eng: eng, fn: fn, arg: arg, period: [2]Cycle{first, second}}
}

// Park stands in for AfterFn(delay, fn, arg): the first tick takes the
// slot that schedule would (cycle Now+delay, the next sequence number), and
// later ticks follow the periods, starting over with the first. Ticks
// before cycle due are passed unless Wake is called; due Never leaves only
// Wake. p must not be parked.
func (p *Poll) Park(delay, due Cycle) {
	e := p.eng
	e.seq++
	p.seq = e.seq
	p.at = e.now + delay
	p.due = due
	p.passed = 0
	e.parked = append(e.parked, p)
	p.idx = len(e.parked)
	if len(e.parked) == 1 && e.lanes == nil || p.at < e.passAt {
		e.passAt = p.at
	}
	e.notePeak()
}

// Wake makes p's next tick due, so it fires fn(arg) in its slot. Waking a
// poll that is not parked does nothing.
func (p *Poll) Wake() { p.due = 0 }

// Passed returns how many ticks the engine passed since the last Park. In
// fn, it is the index of the tick firing: a two-phase poll's tick re-arms
// with the first period when Passed is even.
func (p *Poll) Passed() int { return p.passed }

// before reports whether p's next tick precedes ev in (cycle, seq) order.
func (p *Poll) before(ev *event) bool {
	return p.at < ev.at || (p.at == ev.at && p.seq < ev.seq)
}

// dueAt returns the cycle of the first tick that will fire for real, or
// Never when only a wake can make one due.
func (p *Poll) dueAt() Cycle {
	switch {
	case p.due <= p.at:
		return p.at
	case p.due == Never:
		return Never
	}
	// The ticks lie at at + j*pair and at + g + j*pair for j >= 0; up
	// returns the first tick of one series at or after due.
	g := p.period[p.passed&1]
	pair := g + p.period[(p.passed+1)&1]
	up := func(at Cycle) Cycle {
		if at >= p.due {
			return at
		}
		return at + (p.due-at+pair-1)/pair*pair
	}
	return min(up(p.at), up(p.at+g))
}

// earliestParked returns the parked poll with the least (at, seq) slot.
func (e *Engine) earliestParked() *Poll {
	m := e.parked[0]
	for _, p := range e.parked[1:] {
		if p.at < m.at || (p.at == m.at && p.seq < m.seq) {
			m = p
		}
	}
	return m
}

// passBefore passes, in one loop and in (cycle, seq) order, every parked
// tick and lane slot that precedes the stop: the queue head ev (nil when
// none), the first tick or slot past limit, or the first due tick, which
// it returns for the caller to fire. It returns nil when it stops at ev or
// past limit. A tick's pass does what the re-arming callback's no-op
// firing did: the clock reaches the tick, one sequence number goes to the
// next tick, which lies the tick's period along. A slot's pass moves the
// clock to the slot and drops it; its sequence number was spent at Push.
// A pass never raises Pending (the re-arm's push followed its own pop, and
// a slot's event only popped), so it cannot raise the peak, and passAt is
// recomputed once, at the stop.
func (e *Engine) passBefore(ev *event, limit Cycle) *Poll {
	for {
		var p *Poll
		if len(e.parked) > 0 {
			p = e.earliestParked()
		}
		if l := e.earliestLane(); l != nil {
			if s := &l.slots[l.head]; p == nil || s.at < p.at || (s.at == p.at && s.seq < p.seq) {
				if ev != nil && !s.before(ev) || s.at > limit {
					break
				}
				e.passSlot(l)
				continue
			}
		}
		if p == nil || ev != nil && !p.before(ev) || p.at > limit {
			break
		}
		if p.at >= p.due {
			return p
		}
		e.now = p.at
		e.seq++
		p.seq = e.seq
		p.at += p.period[p.passed&1]
		p.passed++
		e.counts.pass(p)
	}
	e.setPassAt()
	return nil
}

// unpark removes p from the parked set.
func (e *Engine) unpark(p *Poll) {
	i := p.idx - 1
	last := len(e.parked) - 1
	if i != last {
		e.parked[i] = e.parked[last]
		e.parked[i].idx = i + 1
	}
	e.parked[last] = nil
	e.parked = e.parked[:last]
	p.idx = 0
	e.setPassAt()
}

// setPassAt recomputes the earliest parked tick's or lane slot's cycle.
func (e *Engine) setPassAt() {
	at := Never
	for _, p := range e.parked {
		at = min(at, p.at)
	}
	for l := e.lanes; l != nil; l = l.next {
		at = min(at, l.slots[l.head].at)
	}
	e.passAt = at
}
