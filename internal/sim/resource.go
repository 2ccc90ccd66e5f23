package sim

import (
	"math"
	"time"
)

// BandwidthResource models a shared transmission or processing resource
// (a NIC, an NVMe device, a serializer CPU) under processor sharing:
// concurrent transfers divide the aggregate capacity max-min fairly,
// subject to an optional per-flow rate cap (e.g. the 5.8 GB/s BAR read
// limit of GPU memory). In the real (wall-clock) environment every
// transfer completes immediately: real transfers take real time
// elsewhere.
//
// All methods must be called from process context of a single engine.
type BandwidthResource struct {
	name       string
	capacity   float64 // bytes per second, aggregate
	contention float64 // synchronization-contention coefficient α
	flows      []*flow
	scratch    []*flow // water-filling work list, reused
	lastUpdate time.Duration
	tick       *event // the next completion; moved, never re-created
	eng        *Engine

	// TotalBytes accumulates all bytes ever transferred, for utilization
	// reporting.
	TotalBytes float64
}

type flow struct {
	remaining float64 // bytes left to transfer
	cap       float64 // per-flow rate cap in bytes/sec; 0 means uncapped
	rate      float64 // currently allocated rate
	p         *proc   // process to wake on completion, or
	done      func()  // callback to run in engine context on completion
}

// NewBandwidthResource creates a resource with the given aggregate
// capacity in bytes per second. Under a real environment it returns a
// stub whose Transfer is free.
func NewBandwidthResource(env Env, name string, capacity float64) *BandwidthResource {
	r := &BandwidthResource{name: name, capacity: capacity}
	if se, ok := env.(*simEnv); ok {
		r.eng = se.eng
		r.tick = &event{kind: "xfertick", name: name, index: -1, owned: true}
		r.tick.fn = func() {
			r.advance()
			r.reallocate()
		}
	}
	return r
}

// Name returns the resource's name.
func (r *BandwidthResource) Name() string { return r.name }

// SetContention sets the synchronization-contention coefficient α: with
// n concurrent flows the resource's effective aggregate capacity becomes
// capacity/(1+α(n−1)). This models lock and metadata contention in
// shared services (e.g. a filesystem daemon); α=0 (the default) is pure
// processor sharing.
func (r *BandwidthResource) SetContention(alpha float64) { r.contention = alpha }

// Capacity returns the aggregate capacity in bytes per second.
func (r *BandwidthResource) Capacity() float64 { return r.capacity }

// InFlight reports the number of concurrent transfers.
func (r *BandwidthResource) InFlight() int { return len(r.flows) }

// Transfer moves size bytes through the resource, blocking the calling
// process for latency plus the bandwidth-shared transmission time.
// flowCap, when positive, caps this transfer's rate (bytes/sec)
// independent of the resource's aggregate capacity.
func (r *BandwidthResource) Transfer(env Env, size int64, flowCap float64, latency time.Duration) {
	if latency > 0 {
		env.Sleep(latency)
	}
	if size <= 0 {
		return
	}
	se, ok := env.(*simEnv)
	if !ok {
		return // real runtime: transfers take real time elsewhere
	}
	r.start(size, flowCap, se.p, nil)
	se.parkOnCondition()
}

// start admits a flow of size bytes. When it completes the engine wakes
// p or, for a flow started from engine context (p nil), runs done.
func (r *BandwidthResource) start(size int64, flowCap float64, p *proc, done func()) {
	r.TotalBytes += float64(size)
	r.advance()
	var f *flow
	if n := len(r.eng.flows); n > 0 {
		f = r.eng.flows[n-1]
		r.eng.flows = r.eng.flows[:n-1]
	} else {
		f = &flow{}
	}
	*f = flow{remaining: float64(size), cap: flowCap, p: p, done: done}
	r.flows = append(r.flows, f)
	r.reallocate()
}

// advance drains progress made since lastUpdate at current rates.
func (r *BandwidthResource) advance() {
	now := r.eng.now
	dt := (now - r.lastUpdate).Seconds()
	r.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range r.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reallocate recomputes max-min fair rates, completes any finished flows,
// and schedules the next completion event.
func (r *BandwidthResource) reallocate() {
	// Complete finished flows first.
	live := r.flows[:0]
	for _, f := range r.flows {
		if f.remaining > 1e-6 {
			live = append(live, f)
			continue
		}
		if f.p != nil {
			r.eng.scheduleWake(f.p, "xferdone", r.name)
		} else {
			r.eng.schedule(r.eng.now, nil, f.done, "xferdone", r.name)
		}
		*f = flow{}
		r.eng.flows = append(r.eng.flows, f)
	}
	clear(r.flows[len(live):])
	r.flows = live

	// Water-filling max-min allocation with per-flow caps.
	if len(r.flows) > 0 {
		effective := r.capacity
		if r.contention > 0 && len(r.flows) > 1 {
			effective = r.capacity / (1 + r.contention*float64(len(r.flows)-1))
		}
		remainingCap := effective
		r.scratch = append(r.scratch[:0], r.flows...)
		unalloc := r.scratch
		for _, f := range unalloc {
			f.rate = 0
		}
		for len(unalloc) > 0 && remainingCap > 0 {
			share := remainingCap / float64(len(unalloc))
			progressed := false
			next := unalloc[:0]
			for _, f := range unalloc {
				if f.cap > 0 && f.cap <= share {
					f.rate = f.cap
					remainingCap -= f.cap
					progressed = true
				} else {
					next = append(next, f)
				}
			}
			unalloc = next
			if !progressed {
				for _, f := range unalloc {
					f.rate = share
				}
				unalloc = nil
			}
		}
	}

	// Move the next completion; no flow in progress means none.
	soonest := math.Inf(1)
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < soonest {
			soonest = t
		}
	}
	if !math.IsInf(soonest, 1) {
		at := r.eng.now + time.Duration(soonest*float64(time.Second))
		// Guard against zero-length steps caused by float rounding.
		if at <= r.eng.now {
			at = r.eng.now + 1
		}
		r.eng.reschedule(r.tick, at)
	} else {
		r.eng.unschedule(r.tick)
	}
}

// TransferTime computes, without side effects, how long size bytes would
// take through an idle resource with the given per-flow cap and latency.
// Used by cost models that need closed-form estimates.
func TransferTime(size int64, capacity, flowCap float64, latency time.Duration) time.Duration {
	if size <= 0 {
		return latency
	}
	rate := capacity
	if flowCap > 0 && flowCap < rate {
		rate = flowCap
	}
	return latency + time.Duration(float64(size)/rate*float64(time.Second))
}
