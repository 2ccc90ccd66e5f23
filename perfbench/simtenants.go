package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// simWorkload sizes the simulated multi-tenant testbed run.
type simWorkload struct {
	// tenants are trained on GPUs 0..len-1 of one compute node.
	tenants []string
	// horizon is the virtual length of the timed phase; every tenant
	// keeps looping until it has passed.
	horizon time.Duration
	// maxOffset bounds each tenant's seeded start offset.
	maxOffset    time.Duration
	restoreEvery int
	// minReps is the fewest repetitions a run makes, whatever its
	// wall budget: every repetition must reproduce the first one's
	// virtual figures exactly.
	minReps int
	tailP   float64
}

var simTenants = simWorkload{
	tenants:      []string{"bert_large", "vit_l_32", "resnet50", "alexnet"},
	horizon:      10 * time.Second,
	maxOffset:    200 * time.Millisecond,
	restoreEvery: 2,
	minReps:      3,
	tailP:        90,
}

// simRep is one complete simulated run: fresh engine and testbed,
// set-up, then the timed phase.
type simRep struct {
	setup, wall       time.Duration // wall clock
	ckptMS, restoreMS []float64     // virtual, in completion order
	ckptBytes         float64
	opLog
	events                int
	ckptTraces, rstTraces []opTrace
	missingTraces         int
	before, after         scrape // daemon registry around the timed phase
	cBefore, cAfter       scrape // tenants' client registry
	mem                   runtime.MemStats
}

// tenantState is one tenant's model handle and bookkeeping.
type tenantState struct {
	spec    portus.Spec
	m       *portus.Model
	it      *iterations
	offset  time.Duration
	lastAck uint64
	// pending are this tenant's ops whose stitched traces are looked
	// up after the next sleep, once the client's report has landed.
	pending []pendingTrace
}

type pendingTrace struct {
	kind     string
	iter     uint64
	observed time.Duration
}

// runSimRep builds the testbed with the default daemon configuration
// in stamp-tracked mode, registers the tenants, warms each up with one
// checkpoint, then runs the closed loops for w.horizon of virtual
// time. traced turns on engine event tracing and span harvesting.
func runSimRep(w simWorkload, seed int64, traced bool) (*simRep, error) {
	rep := &simRep{}
	rng := rand.New(rand.NewSource(seed))
	ts := make([]*tenantState, len(w.tenants))
	for i, name := range w.tenants {
		spec, err := portus.ModelByName(name)
		if err != nil {
			return nil, err
		}
		ts[i] = &tenantState{
			spec:   spec,
			it:     newIterations(rng.Int63()),
			offset: time.Duration(rng.Int63n(int64(w.maxOffset))),
		}
	}
	var runErr error
	var m0, m1 runtime.MemStats
	eng := portus.NewSimulation()
	start := time.Now()
	var timed time.Time
	eng.Go("perfbench", func(env sim.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{ComputeNodes: 1, GPUsPerNode: len(ts)})
		if err != nil {
			runErr = err
			return
		}
		clientReg := telemetry.NewRegistry()
		d := tb.Daemons[0]
		for i, t := range ts {
			t.m, err = tb.PlaceModelOpts(env, 0, i, t.spec, portus.ClientOptions{Telemetry: clientReg})
			if err != nil {
				runErr = fmt.Errorf("registering %s: %w", t.spec.Name, err)
				return
			}
			iter := t.it.take()
			t.m.ApplyUpdate(iter)
			if err := t.m.Checkpoint(env, iter); err != nil {
				runErr = fmt.Errorf("warm-up checkpoint of %s: %w", t.spec.Name, err)
				return
			}
			t.lastAck = iter
		}
		if rep.before, err = takeScrape(d.Telemetry()); err != nil {
			runErr = err
			return
		}
		if rep.cBefore, err = takeScrape(clientReg); err != nil {
			runErr = err
			return
		}
		rep.setup = time.Since(start)
		// The engine keeps one string per event while tracing; drain
		// counts and drops them at every tenant wake-up so memory stays
		// bounded.
		var drain func()
		if traced {
			eng.SetTracing(true)
			drain = func() {
				rep.events += len(eng.Trace())
				eng.SetTracing(true)
			}
		}
		runtime.ReadMemStats(&m0)
		timed = time.Now()
		end := env.Now() + w.horizon
		g := sim.NewGroup(env)
		for _, t := range ts {
			t := t
			g.Add(env, 1)
			env.Go("tenant-"+t.spec.Name, func(env sim.Env) {
				defer g.Done(env)
				rep.tenantLoop(env, w, t, end, d.Traces(), drain)
			})
		}
		g.Wait(env)
		rep.wall = time.Since(timed)
		runtime.ReadMemStats(&m1)
		rep.mem = memDelta(m0, m1)
		if traced {
			drain()
			eng.SetTracing(false)
		}
		if rep.after, err = takeScrape(d.Telemetry()); err != nil {
			runErr = err
			return
		}
		if rep.cAfter, err = takeScrape(clientReg); err != nil {
			runErr = err
			return
		}
		for _, t := range ts {
			m, err := d.Store().Lookup(t.spec.Name)
			if err != nil {
				runErr = err
				return
			}
			if _, v, ok := m.LatestDone(); !ok || v.Iteration != t.lastAck {
				rep.fail("%s: daemon's latest committed iteration is %d, last acknowledged checkpoint is %d", t.spec.Name, v.Iteration, t.lastAck)
			}
		}
		// Stop every process the testbed started, so the engine can
		// drain and this repetition's memory is collectable.
		for _, t := range ts {
			_ = t.m.Close()
		}
		d.Halt(env)
		tb.Net().Shutdown(env, tb.Cluster.Storage[0].Name)
	})
	eng.Run()
	if n := eng.Live(); n > 0 {
		rep.fail("%d simulated processes outlived the run", n)
	}
	if runErr != nil {
		return nil, runErr
	}
	if timed.IsZero() {
		return nil, fmt.Errorf("simulation stopped before the timed phase")
	}
	return rep, nil
}

// tenantLoop is one tenant's closed loop: start at its seeded offset,
// then update, sync checkpoint, a verified restore every restoreEvery
// iterations, and sleep for the model's iteration time, until end.
// A non-nil drain marks a traced run: it is called after every sleep,
// when the tenant's stitched traces are harvested too.
func (rep *simRep) tenantLoop(env sim.Env, w simWorkload, t *tenantState, end time.Duration, ring *telemetry.TraceRing, drain func()) {
	env.Sleep(t.offset)
	for n := 1; env.Now() < end; n++ {
		iter := t.it.take()
		t.m.ApplyUpdate(iter)
		rep.attempted++
		t0 := env.Now()
		if err := t.m.Checkpoint(env, iter); err != nil {
			rep.fail("%s checkpoint %d: %v", t.spec.Name, iter, err)
		} else {
			lat := env.Now() - t0
			rep.ckptMS = append(rep.ckptMS, ms(lat))
			rep.ckptBytes += float64(t.spec.TotalSize())
			t.lastAck = iter
			t.pending = append(t.pending, pendingTrace{"checkpoint", iter, lat})
		}
		if n%w.restoreEvery == 0 {
			rep.restoreAndVerify(env, t)
		}
		env.Sleep(t.spec.IterTime)
		if drain != nil {
			drain()
			rep.resolve(ring, t)
		}
		t.pending = t.pending[:0]
	}
}

// restoreAndVerify overwrites the tenant's GPU copy, restores, and
// checks the restored content is the last acknowledged iteration.
func (rep *simRep) restoreAndVerify(env sim.Env, t *tenantState) {
	t.m.ApplyUpdate(scrambleIteration)
	rep.attempted++
	t0 := env.Now()
	got, err := t.m.Restore(env)
	if err != nil {
		rep.fail("%s restore after %d: %v", t.spec.Name, t.lastAck, err)
		return
	}
	lat := env.Now() - t0
	rep.restoreMS = append(rep.restoreMS, ms(lat))
	t.pending = append(t.pending, pendingTrace{"restore", got, lat})
	switch {
	case got != t.lastAck:
		rep.fail("%s: restore returned iteration %d, last acknowledged checkpoint is %d", t.spec.Name, got, t.lastAck)
	case t.m.Placed().VerifyIteration(got) >= 0:
		rep.fail("%s: restore of iteration %d: content mismatch", t.spec.Name, got)
	}
}

// resolve harvests the stitched traces of the tenant's pending ops.
func (rep *simRep) resolve(ring *telemetry.TraceRing, t *tenantState) {
	for _, p := range t.pending {
		tr := findStitched(ring, p.kind, t.spec.Name, p.iter)
		switch {
		case tr == nil:
			rep.missingTraces++
		case p.kind == "checkpoint":
			rep.ckptTraces = append(rep.ckptTraces, breakdown(tr, p.observed))
		default:
			rep.rstTraces = append(rep.rstTraces, breakdown(tr, p.observed))
		}
	}
}
