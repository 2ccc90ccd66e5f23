// Package sim provides a deterministic discrete-event simulation engine
// and a small concurrency abstraction (Env) that lets the same component
// code run either under virtual time (for reproducing the paper's
// experiments deterministically) or under real wall-clock time (for the
// TCP-backed executables and integration tests).
//
// The engine hosts each simulated process as a goroutine, but exactly one
// process executes at any instant: processes hand control back to the
// engine whenever they block (Sleep, mailbox receive, signal wait,
// bandwidth transfer), and the engine advances virtual time to the next
// scheduled event. Scheduling is totally ordered by (time, sequence
// number), so a given program produces the same trace on every run.
package sim

import (
	"fmt"
	"time"
)

// Engine is a discrete-event scheduler. Create one with NewEngine, spawn
// processes with Go, and drive it with Run or RunUntil. Engine methods
// other than process-context operations must be called from the goroutine
// that owns the engine (typically the test or benchmark body).
type Engine struct {
	now    time.Duration
	seq    uint64
	queue  []*event      // binary min-heap ordered by (at, seq)
	free   []*event      // dispatched events, reused by schedule
	flows  []*flow       // completed flows, reused by BandwidthResource
	pipes  []*pipe       // finished pipelines, reused by PipelineTransfer
	ctl    chan struct{} // handshake: running proc -> engine
	nprocs int           // live (spawned, not finished) processes
	npark  int           // processes parked on signals/mailboxes (no pending event)

	// trace, when non-nil, receives one entry per dispatched event.
	// Used by determinism tests.
	trace []string
	// tracing enables trace collection.
	tracing bool
}

// NewEngine returns an engine with virtual time at zero.
func NewEngine() *Engine {
	return &Engine{ctl: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetTracing enables or disables event tracing (for determinism tests).
func (e *Engine) SetTracing(on bool) { e.tracing = on; e.trace = nil }

// Trace returns the collected event trace.
func (e *Engine) Trace() []string { return e.trace }

// event is a scheduled occurrence: either waking a parked process or
// running a callback in engine context. Its trace label is kind:name,
// joined only while tracing is on.
type event struct {
	at    time.Duration
	seq   uint64
	p     *proc  // non-nil: wake this process
	fn    func() // non-nil: run inline (must not block)
	kind  string
	name  string
	index int  // heap index; -1 while not queued
	owned bool // reused by its owner (a resource tick), never recycled
}

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (e *Engine) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(j, i) {
			return
		}
		e.swap(i, j)
		j = i
	}
}

// down sifts the event at index i toward the leaves and reports whether
// it moved.
func (e *Engine) down(i int) bool {
	i0, n := i, len(e.queue)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && e.less(r, j) {
			j = r
		}
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores heap order after the event at index i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// remove takes the event at heap index i out of the queue.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	ev := e.queue[i]
	if i != n {
		e.swap(i, n)
	}
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i != n {
		e.fix(i)
	}
	ev.index = -1
}

// schedule enqueues an event at absolute virtual time at.
func (e *Engine) schedule(at time.Duration, p *proc, fn func(), kind, name string) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{index: -1}
	}
	ev.p, ev.fn, ev.kind, ev.name = p, fn, kind, name
	e.reschedule(ev, at)
}

// reschedule (re)queues ev at absolute virtual time at with a fresh
// sequence number. Moving a queued event orders it exactly as cancelling
// it and scheduling a new one would.
func (e *Engine) reschedule(ev *event, at time.Duration) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	if ev.index >= 0 {
		e.fix(ev.index)
		return
	}
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// unschedule removes ev from the queue if it is queued.
func (e *Engine) unschedule(ev *event) {
	if ev.index >= 0 {
		e.remove(ev.index)
	}
}

// proc is one simulated process.
type proc struct {
	name    string
	eng     *Engine
	wake    chan struct{}
	startFn func(Env)
	started bool
	dead    bool
	// panicked carries a panic value out of the process goroutine so the
	// engine can re-raise it on the driving goroutine.
	panicked any
	hasPanic bool
}

// Go spawns a new process that begins executing at the current virtual
// time (after already-scheduled events at this time). The process body
// receives its own Env and must perform all blocking through it.
func (e *Engine) Go(name string, fn func(Env)) {
	p := &proc{name: name, eng: e, wake: make(chan struct{}), startFn: fn}
	e.nprocs++
	e.schedule(e.now, p, nil, "start", name)
}

// Run dispatches events until none remain. It returns the final virtual
// time. Processes still parked on signals or mailboxes when the event
// queue drains are abandoned (the usual DES convention); tests can assert
// on Engine.Parked to detect unexpected deadlock.
func (e *Engine) Run() time.Duration { return e.RunUntil(1<<62 - 1) }

// RunUntil dispatches events with time ≤ deadline and then stops,
// leaving later events queued. It returns the virtual time after the
// last dispatched event (or the deadline if it stopped early). The clock
// never moves backwards: a deadline before Now dispatches nothing.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.at > deadline {
			if deadline > e.now {
				e.now = deadline
			}
			return e.now
		}
		e.remove(0)
		e.now = ev.at
		if e.tracing {
			e.trace = append(e.trace, fmt.Sprintf("%d:%s:%s", e.now, ev.kind, ev.name))
		}
		p, fn := ev.p, ev.fn
		if !ev.owned {
			ev.p, ev.fn = nil, nil
			e.free = append(e.free, ev)
		}
		switch {
		case fn != nil:
			fn()
		case p != nil:
			e.dispatch(p)
		}
	}
	return e.now
}

// dispatch transfers control to process p and waits for it to park,
// finish, or panic.
func (e *Engine) dispatch(p *proc) {
	if p.dead {
		return
	}
	if !p.started {
		p.started = true
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p.panicked = r
					p.hasPanic = true
				}
				p.dead = true
				p.eng.nprocs--
				e.ctl <- struct{}{}
			}()
			p.startFn(&simEnv{eng: e, p: p})
		}()
	} else {
		p.wake <- struct{}{}
	}
	<-e.ctl
	if p.hasPanic {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicked))
	}
}

// park is called from within a process goroutine: it yields control to
// the engine and blocks until the engine wakes this process again.
func (p *proc) park() {
	p.eng.ctl <- struct{}{}
	<-p.wake
}

// Parked reports how many processes are blocked with no pending event
// (i.e. waiting on a signal or mailbox). Useful for deadlock assertions.
func (e *Engine) Parked() int { return e.npark }

// Live reports how many spawned processes have not yet finished.
func (e *Engine) Live() int { return e.nprocs }
