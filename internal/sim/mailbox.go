package sim

import "sync"

// Mailbox is an unbounded FIFO message queue usable from both
// environments. It is the channel-like primitive that daemon worker
// pools, connection handlers, and the simulated fabric use to exchange
// messages.
type Mailbox[T any] struct {
	// simulation state
	queue   []T
	waiters []*proc
	closed  bool

	// real-runtime state
	mu   sync.Mutex
	cond *sync.Cond
	real bool
}

// NewMailbox creates a mailbox usable under env.
func NewMailbox[T any](env Env) *Mailbox[T] {
	m := &Mailbox[T]{}
	if !env.IsSim() {
		m.real = true
		m.cond = sync.NewCond(&m.mu)
	}
	return m
}

// Send enqueues v. Sending never blocks. Sending on a closed mailbox
// panics, matching channel semantics.
func (m *Mailbox[T]) Send(env Env, v T) {
	if m.real {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			panic("sim: send on closed mailbox")
		}
		m.queue = append(m.queue, v)
		m.mu.Unlock()
		m.cond.Signal()
		return
	}
	if m.closed {
		panic("sim: send on closed mailbox")
	}
	m.queue = append(m.queue, v)
	m.wakeOne(env)
}

// wakeOne releases the longest-waiting receiver, if any.
func (m *Mailbox[T]) wakeOne(env Env) {
	if len(m.waiters) == 0 {
		return
	}
	se := env.(*simEnv)
	p := m.waiters[0]
	m.waiters = m.waiters[1:]
	se.eng.scheduleWake(p, "mbox", p.name)
}

// Recv dequeues the oldest message, blocking until one is available. The
// second result is false when the mailbox is closed and drained.
func (m *Mailbox[T]) Recv(env Env) (T, bool) {
	var zero T
	if m.real {
		m.mu.Lock()
		defer m.mu.Unlock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			return zero, false
		}
		v := m.queue[0]
		m.queue = m.queue[1:]
		return v, true
	}
	se := env.(*simEnv)
	for len(m.queue) == 0 {
		if m.closed {
			return zero, false
		}
		m.waiters = append(m.waiters, se.p)
		se.parkOnCondition()
	}
	v := m.queue[0]
	m.queue = m.queue[1:]
	return v, true
}

// TryRecv dequeues a message without blocking. The second result is false
// when the mailbox is currently empty.
func (m *Mailbox[T]) TryRecv(env Env) (T, bool) {
	var zero T
	if m.real {
		m.mu.Lock()
		defer m.mu.Unlock()
		if len(m.queue) == 0 {
			return zero, false
		}
		v := m.queue[0]
		m.queue = m.queue[1:]
		return v, true
	}
	if len(m.queue) == 0 {
		return zero, false
	}
	v := m.queue[0]
	m.queue = m.queue[1:]
	return v, true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len(env Env) int {
	if m.real {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.queue)
	}
	return len(m.queue)
}

// Closed reports whether the mailbox has been closed. Senders that may
// race a close use it to fail gracefully instead of panicking.
func (m *Mailbox[T]) Closed(env Env) bool {
	if m.real {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.closed
	}
	return m.closed
}

// Close marks the mailbox closed; blocked and future receivers get
// (zero, false) once the queue drains. Closing twice is a no-op.
func (m *Mailbox[T]) Close(env Env) {
	if m.real {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		m.cond.Broadcast()
		return
	}
	m.closed = true
	se := env.(*simEnv)
	for _, p := range m.waiters {
		se.eng.scheduleWake(p, "mboxclose", p.name)
	}
	m.waiters = nil
}
