package sim

import "sync"

// Signal is a one-shot broadcast condition: processes block in Wait until
// some process calls Fire, after which Wait returns immediately forever.
// It is the primitive used for "checkpoint done" style completions.
type Signal struct {
	// simulation state (touched only from engine-scheduled code)
	waiters []*proc
	fired   bool

	// real-runtime state
	mu   sync.Mutex
	cond *sync.Cond
	real bool
}

// NewSignal creates a Signal usable under env.
func NewSignal(env Env) *Signal {
	s := &Signal{}
	if !env.IsSim() {
		s.real = true
		s.cond = sync.NewCond(&s.mu)
	}
	return s
}

// Fired reports whether Fire has been called. In the real runtime this is
// safe to call concurrently.
func (s *Signal) Fired(env Env) bool {
	if s.real {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.fired
	}
	return s.fired
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire(env Env) {
	if s.real {
		s.mu.Lock()
		s.fired = true
		s.mu.Unlock()
		s.cond.Broadcast()
		return
	}
	if s.fired {
		return
	}
	s.fired = true
	se := env.(*simEnv)
	for _, p := range s.waiters {
		se.eng.scheduleWake(p, "signal", p.name)
	}
	s.waiters = nil
}

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(env Env) {
	if s.real {
		s.mu.Lock()
		for !s.fired {
			s.cond.Wait()
		}
		s.mu.Unlock()
		return
	}
	if s.fired {
		return
	}
	se := env.(*simEnv)
	s.waiters = append(s.waiters, se.p)
	se.parkOnCondition()
}

// Group counts outstanding work, like sync.WaitGroup, but usable under
// both environments.
type Group struct {
	n       int
	waiters []*proc

	mu   sync.Mutex
	cond *sync.Cond
	real bool
}

// NewGroup creates a Group usable under env.
func NewGroup(env Env) *Group {
	g := &Group{}
	if !env.IsSim() {
		g.real = true
		g.cond = sync.NewCond(&g.mu)
	}
	return g
}

// Add increments the outstanding-work counter by delta.
func (g *Group) Add(env Env, delta int) {
	if g.real {
		g.mu.Lock()
		g.n += delta
		if g.n < 0 {
			g.mu.Unlock()
			panic("sim: negative Group counter")
		}
		done := g.n == 0
		g.mu.Unlock()
		if done {
			g.cond.Broadcast()
		}
		return
	}
	g.n += delta
	if g.n < 0 {
		panic("sim: negative Group counter")
	}
	if g.n == 0 {
		se := env.(*simEnv)
		for _, p := range g.waiters {
			se.eng.scheduleWake(p, "group", p.name)
		}
		g.waiters = nil
	}
}

// Done decrements the counter by one.
func (g *Group) Done(env Env) { g.Add(env, -1) }

// Wait blocks until the counter reaches zero.
func (g *Group) Wait(env Env) {
	if g.real {
		g.mu.Lock()
		for g.n != 0 {
			g.cond.Wait()
		}
		g.mu.Unlock()
		return
	}
	if g.n == 0 {
		return
	}
	se := env.(*simEnv)
	g.waiters = append(g.waiters, se.p)
	se.parkOnCondition()
}
