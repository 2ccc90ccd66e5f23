package main

import (
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/portus-sys/portus/internal/model"
)

// Tiling floors: the client's spans must cover the latency the
// benchmark observed around the call, and the daemon's stage spans the
// client's send+await, each to within these shares.
const (
	minClientCover = 0.97
	minDaemonCover = 0.95
	maxDaemonCover = 1.02
)

// runTCP measures one tcp workload: w.setups rig builds, each warmed
// up (the last one is kept), then a timed closed loop; with traced, a
// second, traced loop on the same rig.
func runTCP(name string, w tcpWorkload, seed int64, dur time.Duration, traced bool) (*report, error) {
	spec, err := model.ByName(w.model)
	if err != nil {
		return nil, err
	}
	modelBytes := float64(spec.TotalSize())
	rep := &report{workload: name, clock: "wall", tailP: w.tailP}
	it := newIterations(seed)
	var rig *tcpRig
	var setups []float64
	for s := 0; s < w.setups; s++ {
		if rig != nil {
			rig.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		if rig, err = newTCPRig(w, spec); err != nil {
			return nil, err
		}
		warm, err := rig.runLoop(it, 0, w.warmup, false)
		if err != nil {
			rig.close()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		rep.merge(warm.opLog)
	}
	defer rig.close()

	minCkpts := minSamplesFor(w.tailP, tailBeyond)
	phase := func(traced bool) (*tcpPhase, map[string]float64, error) {
		runtime.GC()
		p, err := rig.runLoop(it, dur, minCkpts, traced)
		if err != nil {
			return nil, nil, err
		}
		rep.merge(p.opLog)
		rep.tcpChecks(rig, p)
		n := float64(len(p.ckptMS))
		return p, e2eOf(measured{
			ckptMS: p.ckptMS, restoreMS: p.restoreMS,
			ckptBytes:     n * modelBytes,
			wallPerCkptMS: ms(p.wall) / n,
			setupS:        setups,
		}, w.tailP), nil
	}
	p, e2e, err := phase(false)
	if err != nil {
		return nil, err
	}
	rep.e2e, rep.samples = e2e, len(p.ckptMS)
	if !traced {
		return rep, nil
	}
	q, e2e, err := phase(true)
	if err != nil {
		return nil, err
	}
	rep.traced = e2e
	rep.layers = layersOf(window{
		before: q.before, after: q.after, cBefore: q.cBefore, cAfter: q.cAfter,
		ckpts: len(q.ckptMS), restores: len(q.restoreMS),
		ckptTraces: q.ckptTraces, rstTraces: q.rstTraces,
		modelBytes: modelBytes, ckptBytes: float64(len(q.ckptMS)) * modelBytes,
		msgs: q.msgs, bytes: q.bytes,
		mallocs: q.mem.Mallocs, allocBytes: q.mem.TotalAlloc, gcs: uint64(q.mem.NumGC), gcPauseNs: q.mem.PauseTotalNs,
	})
	rep.layers["sim.events_per_ckpt"] = 0
	rep.layers["sim.run_wall_s"] = 0
	rep.layers["gpu.update_ms"] = median(q.updateMS)
	rep.layers["gpu.verify_ms"] = median(q.verifyMS)
	rep.layers["trace.missing"] = float64(q.missingTraces)
	rep.addOverhead()
	rep.tilingChecks(q.missingTraces)
	return rep, nil
}

// tcpChecks are the output checks after a timed tcp phase: the daemon
// committed exactly the last acknowledged checkpoint, and on the delta
// workload no timed checkpoint silently fell back to a full pull.
func (r *report) tcpChecks(rig *tcpRig, p *tcpPhase) {
	latest, err := rig.latestCommitted()
	r.check(err == nil && latest == p.lastAck,
		"daemon's latest committed iteration is %d (%v), last acknowledged checkpoint is %d", latest, err, p.lastAck)
	if rig.w.blockBytes > 0 {
		fb := diff(p.before, p.after, "portus_delta_full_fallbacks_total")
		r.check(fb == 0, "%g timed checkpoints fell back to a full pull: the delta path was not measured", fb)
	}
}

// tilingChecks demands that every traced operation was found and that
// its spans account for the latency the benchmark observed.
func (r *report) tilingChecks(missing int) {
	r.check(missing == 0, "%d traced operations had no stitched trace", missing)
	cc, dc := r.layers["trace.client_cover"], r.layers["trace.daemon_cover"]
	r.check(cc >= minClientCover, "client spans cover %.3f of the observed checkpoint latency (want >= %.2f)", cc, minClientCover)
	r.check(dc >= minDaemonCover && dc <= maxDaemonCover,
		"daemon stage spans cover %.3f of the client's send+await (want %.2f..%.2f)", dc, minDaemonCover, maxDaemonCover)
}

// runSim measures sim-tenants: whole simulated runs repeated at one
// seed until the wall budget is spent (at least w.minReps). Virtual
// figures come from the first repetition and every other one, the
// traced one included, must reproduce them exactly; wall figures are
// medians over the repetitions.
func runSim(w simWorkload, seed int64, dur time.Duration, traced bool) (*report, error) {
	rep := &report{workload: "sim-tenants", clock: "virtual", tailP: w.tailP}
	var reps []*simRep
	start := time.Now()
	for len(reps) < w.minReps || time.Since(start) < dur {
		runtime.GC()
		r, err := runSimRep(w, seed, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		rep.merge(r.opLog)
	}
	first := reps[0]
	var setups, walls, perCkpt []float64
	for i, r := range reps {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		perCkpt = append(perCkpt, ms(r.wall)/float64(len(r.ckptMS)))
		rep.check(sameVirtual(first, r), "virtual-time drift: repetition %d at seed %d differs from the first", i+1, seed)
	}
	rep.samples = len(first.ckptMS)
	rep.check(tailPercentile(rep.samples, tailBeyond) >= w.tailP,
		"%d checkpoints are too few for a p%g tail", rep.samples, w.tailP)
	m := measured{
		ckptMS: first.ckptMS, restoreMS: first.restoreMS, ckptBytes: first.ckptBytes,
		wallPerCkptMS: median(perCkpt), setupS: setups,
	}
	rep.e2e = e2eOf(m, w.tailP)
	if !traced {
		return rep, nil
	}
	runtime.GC()
	t, err := runSimRep(w, seed, true)
	if err != nil {
		return nil, err
	}
	rep.merge(t.opLog)
	rep.check(sameVirtual(first, t), "virtual-time drift: the traced run at seed %d differs from the untraced one", seed)
	m.wallPerCkptMS = ms(t.wall) / float64(len(t.ckptMS))
	rep.traced = e2eOf(m, w.tailP)
	var modelBytes float64
	for _, name := range w.tenants {
		spec, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		modelBytes += float64(spec.TotalSize())
	}
	rep.layers = layersOf(window{
		before: t.before, after: t.after, cBefore: t.cBefore, cAfter: t.cAfter,
		ckpts: len(t.ckptMS), restores: len(t.restoreMS),
		ckptTraces: t.ckptTraces, rstTraces: t.rstTraces,
		modelBytes: modelBytes, ckptBytes: t.ckptBytes,
		mallocs: t.mem.Mallocs, allocBytes: t.mem.TotalAlloc, gcs: uint64(t.mem.NumGC), gcPauseNs: t.mem.PauseTotalNs,
	})
	rep.layers["sim.events_per_ckpt"] = float64(t.events) / float64(len(t.ckptMS))
	rep.layers["sim.run_wall_s"] = median(walls)
	rep.layers["gpu.update_ms"] = 0
	rep.layers["gpu.verify_ms"] = 0
	rep.layers["trace.missing"] = float64(t.missingTraces)
	rep.addOverhead()
	rep.tilingChecks(t.missingTraces)
	return rep, nil
}

// sameVirtual reports whether two repetitions produced identical
// virtual-time results.
func sameVirtual(a, b *simRep) bool {
	return slices.Equal(a.ckptMS, b.ckptMS) && slices.Equal(a.restoreMS, b.restoreMS) &&
		a.ckptBytes == b.ckptBytes && a.attempted == b.attempted
}
