package sim

// Lane is a FIFO of passive slots: the engine's stand-in for events whose
// callback, when it fires, does nothing but end the work that scheduled it,
// such as the completion of an access nothing waits on. Such an event
// spends a push, a pop and a firing to change no state. A slot keeps only
// its (cycle, seq) place in the event order: Push spends the sequence
// number the schedule would, and when the engine's order reaches the slot
// it passes it, moving the clock there as the firing would, but pops and
// fires nothing.
//
// A slot counts in Engine.Pending as the event it stands for, so the peak
// and an idle check see it until it is passed; Pending on the lane counts
// the owner's own. NextAt reports only real events, and a Step or StepUntil
// passes the slots before the event or due tick it fires.
//
// Slots are pushed in event order: each at or after the cycle of the one
// before. The zero Lane is unusable; Init binds it to an engine.
type Lane struct {
	// name is the callback a slot stands for, kept only by the simcount
	// build, which counts passed slots under it (count.go).
	name laneName
	eng  *Engine
	// slots[head:] are the unpassed slots, oldest first.
	slots []laneSlot
	head  int
	// next links the engine's lanes that hold slots (Engine.lanes).
	next *Lane
}

// laneSlot is one passive slot's place in the event order.
type laneSlot struct {
	at  Cycle
	seq uint64
}

// Init binds l to eng. fn is the callback its slots stand for; the engine
// never calls it, and only event counts name the lane by it.
func (l *Lane) Init(eng *Engine, fn func(any)) {
	*l = Lane{eng: eng}
	l.name.set(fn)
}

// Pending returns the number of unpassed slots.
func (l *Lane) Pending() int { return len(l.slots) - l.head }

// Push stands in for ScheduleFn(at, fn, arg) of a callback that will do
// nothing: it takes the slot that schedule would (cycle at, clamped to
// Now, and the next sequence number) and notes the peak as the schedule
// would. It panics on a slot earlier than the lane's last.
func (l *Lane) Push(at Cycle) {
	e := l.eng
	e.seq++
	if at < e.now {
		at = e.now
	}
	if l.Pending() == 0 {
		// The lane joins the engine's list. A lane that held slots already
		// has its head, no later than at, in passAt.
		l.next, e.lanes = e.lanes, l
		if len(e.parked) == 0 && l.next == nil || at < e.passAt {
			e.passAt = at
		}
	} else if at < l.slots[len(l.slots)-1].at {
		panic("sim: lane slot pushed before the lane's last slot")
	}
	// Move the unpassed slots to the front when the array is full, so a
	// warm lane allocates nothing, and start with room for a few, so a
	// fresh one allocates once.
	if len(l.slots) == cap(l.slots) && l.head > 0 {
		n := copy(l.slots, l.slots[l.head:])
		l.slots, l.head = l.slots[:n], 0
	}
	if l.slots == nil {
		l.slots = make([]laneSlot, 0, 4)
	}
	l.slots = append(l.slots, laneSlot{at, e.seq})
	e.laneN++
	e.notePeak()
}

// before reports whether s precedes ev in (cycle, seq) order.
func (s *laneSlot) before(ev *event) bool {
	return s.at < ev.at || (s.at == ev.at && s.seq < ev.seq)
}

// earliestLane returns the lane whose next slot is least in (cycle, seq)
// order, or nil when no lane has one.
func (e *Engine) earliestLane() *Lane {
	m := e.lanes
	if m == nil {
		return nil
	}
	ms := &m.slots[m.head]
	for l := m.next; l != nil; l = l.next {
		if s := &l.slots[l.head]; s.at < ms.at || (s.at == ms.at && s.seq < ms.seq) {
			m, ms = l, s
		}
	}
	return m
}

// passSlot passes l's next slot: the clock reaches it and it is dropped.
// A lane left empty leaves the engine's list.
func (e *Engine) passSlot(l *Lane) {
	e.now = l.slots[l.head].at
	e.counts.passSlot(l)
	e.laneN--
	l.head++
	if l.head < len(l.slots) {
		return
	}
	l.slots, l.head = l.slots[:0], 0
	p := &e.lanes
	for *p != l {
		p = &(*p).next
	}
	*p, l.next = l.next, nil
}
