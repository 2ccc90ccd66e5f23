package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// tcpWorkload sizes one trainer-over-loopback workload: a portus.Server
// and one client in this process, talking gob over a real TCP control
// socket and moving materialized bytes over the TCP soft-RDMA fabric.
type tcpWorkload struct {
	model string
	// gpuBytes and pmemBytes size the materialized devices to the
	// model: materialized devices allocate their whole capacity.
	gpuBytes, pmemBytes, metaBytes int64
	// blockBytes > 0 turns on incremental checkpoints (the server's
	// DeltaEnabled plus client block digests) with sparse updates
	// touching dirtyRate of the blocks; 0 means dense updates and full
	// checkpoints.
	blockBytes int64
	dirtyRate  float64
	// warmup is the number of checkpoints run before timing starts, so
	// first-touch page faults, heap growth and the delta ladder
	// (bootstrap, then arming) are paid in set-up.
	warmup int
	// restoreEvery runs a restore after every n-th checkpoint.
	restoreEvery int
	// setups is how many times a run builds the rig; the last one is
	// measured, and setup_s is the median.
	setups int
	// tailP is the tail percentile ckpt_tail_ms reports; a run keeps
	// checkpointing past its deadline until that percentile has at
	// least tailBeyond samples above it.
	tailP float64
}

const tailBeyond = 10

// maxLoopFailures ends a loop early once this many operations failed:
// the run is already incorrect and must not spin until killed.
const maxLoopFailures = 5

var tcpFull = tcpWorkload{
	model:    "resnet50",
	gpuBytes: 128 << 20, pmemBytes: 256 << 20, metaBytes: 16 << 20,
	warmup: 4, restoreEvery: 4, setups: 3, tailP: 75,
}

var tcpDelta = tcpWorkload{
	model:    "resnet50",
	gpuBytes: 128 << 20, pmemBytes: 256 << 20, metaBytes: 16 << 20,
	blockBytes: 64 << 10, dirtyRate: 0.01,
	warmup: 4, restoreEvery: 4, setups: 3, tailP: 75,
}

// tcpRig is one server plus one registered client.
type tcpRig struct {
	w         tcpWorkload
	srv       *portus.Server
	env       *sim.RealEnv
	fabric    *rdma.TCPFabric
	c         *client.Client
	placed    *gpu.PlacedModel
	clientReg *telemetry.Registry
	wire      wireStats
}

// newTCPRig starts the server through the public API and assembles the
// client side the way portus.NewJob does, except that the benchmark
// dials the control socket itself so it can count the wire traffic,
// and hands the client a registry of its own.
func newTCPRig(w tcpWorkload, spec model.Spec) (*tcpRig, error) {
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: w.pmemBytes, MetaBytes: w.metaBytes, Materialized: true,
		DeltaEnabled: w.blockBytes > 0, DeltaBlockBytes: w.blockBytes,
	})
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	r := &tcpRig{w: w, srv: srv, env: sim.NewRealEnv(), clientReg: telemetry.NewRegistry()}
	r.fabric = rdma.NewTCPFabric(r.env)
	node := rdma.NewNode(r.env, "client0")
	fabricAddr, err := r.fabric.Serve(node, "")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("client fabric agent: %w", err)
	}
	r.fabric.AddPeer("storage", srv.FabricAddr)
	r.placed, err = gpu.Place(gpu.New("client0/gpu0", w.gpuBytes, true), spec)
	if err != nil {
		r.close()
		return nil, err
	}
	sock, err := net.Dial("tcp", srv.CtrlAddr)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("dialing server: %w", err)
	}
	r.c, err = client.RegisterOpts(r.env, r.wire.wrap(sock), node, r.placed, client.Options{
		FabricAddr: fabricAddr, DeltaBlockBytes: w.blockBytes, Telemetry: r.clientReg,
	})
	if err != nil {
		sock.Close()
		r.close()
		return nil, err
	}
	return r, nil
}

// close tears the rig down so its devices can be collected.
func (r *tcpRig) close() {
	if r.c != nil {
		_ = r.c.Close()
	}
	r.srv.Daemon().Halt(r.env)
	r.srv.Close()
	if r.fabric != nil {
		r.fabric.Close()
	}
}

// update applies one training step's weights for iteration.
func (r *tcpRig) update(iteration uint64) {
	if r.w.blockBytes > 0 {
		r.placed.ApplySparseUpdate(iteration, r.w.blockBytes, r.w.dirtyRate)
	} else {
		r.placed.ApplyUpdate(iteration)
	}
}

// iterations yields the seed's strictly increasing iteration numbers;
// they decide the tensor content and, on sparse updates, the dirty
// blocks.
type iterations struct {
	rng  *rand.Rand
	next uint64
}

func newIterations(seed int64) *iterations {
	rng := rand.New(rand.NewSource(seed))
	return &iterations{rng: rng, next: 1 + uint64(rng.Intn(1<<20))}
}

func (it *iterations) take() uint64 {
	n := it.next
	it.next += 1 + uint64(it.rng.Intn(4))
	return n
}

// scrambleIteration is an iteration number no checkpoint uses: a
// restore is only verified after the GPU copy has been overwritten.
const scrambleIteration = 1 << 62

// tcpPhase is one timed (or warm-up) stretch of the closed loop.
type tcpPhase struct {
	ckptMS, restoreMS     []float64
	updateMS, verifyMS    []float64
	ckptTraces, rstTraces []opTrace
	missingTraces         int
	opLog
	lastAck         uint64
	wall            time.Duration
	before, after   scrape // server registry around the phase
	cBefore, cAfter scrape // client registry around the phase
	msgs, bytes     int64
	mem             runtime.MemStats // activity during the phase
}

// runLoop drives the closed loop: update, sync checkpoint, and after
// every restoreEvery-th checkpoint a scramble, restore and verify. It
// runs for at least minCkpts checkpoints and until dur has passed;
// traced loops also wait for each stitched trace.
func (r *tcpRig) runLoop(it *iterations, dur time.Duration, minCkpts int, traced bool) (*tcpPhase, error) {
	p := &tcpPhase{}
	var err error
	if p.before, err = takeScrape(r.srv.Telemetry()); err != nil {
		return nil, err
	}
	if p.cBefore, err = takeScrape(r.clientReg); err != nil {
		return nil, err
	}
	msgs0, bytes0 := r.wire.totals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	name := r.placed.Spec.Name
	start := time.Now()
	for ckpts := 0; (ckpts < minCkpts || time.Since(start) < dur) && p.failed <= maxLoopFailures; {
		iter := it.take()
		t := time.Now()
		r.update(iter)
		p.updateMS = append(p.updateMS, ms(time.Since(t)))

		p.attempted++
		t = time.Now()
		err := r.c.CheckpointSync(r.env, iter)
		lat := time.Since(t)
		if err != nil {
			p.fail("checkpoint %d: %v", iter, err)
			continue
		}
		ckpts++
		p.lastAck = iter
		p.ckptMS = append(p.ckptMS, ms(lat))
		if traced {
			p.harvest(r.srv.Traces(), "checkpoint", name, iter, lat)
		}
		if ckpts%r.w.restoreEvery != 0 {
			continue
		}
		r.restoreAndVerify(p, traced)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.mem = memDelta(m0, m1)
	msgs1, bytes1 := r.wire.totals()
	p.msgs, p.bytes = msgs1-msgs0, bytes1-bytes0
	if p.after, err = takeScrape(r.srv.Telemetry()); err != nil {
		return nil, err
	}
	if p.cAfter, err = takeScrape(r.clientReg); err != nil {
		return nil, err
	}
	return p, nil
}

// restoreAndVerify overwrites the GPU copy, restores the newest
// checkpoint and checks it is the last acknowledged one, byte for
// byte: by iteration content on dense updates, and against block
// digests captured before the overwrite on sparse ones.
func (r *tcpRig) restoreAndVerify(p *tcpPhase, traced bool) {
	var want []uint64
	t := time.Now()
	if r.w.blockBytes > 0 {
		want = r.placed.BlockDigests(r.w.blockBytes)
	}
	captured := time.Since(t)
	t = time.Now()
	r.placed.ApplyUpdate(scrambleIteration)
	p.updateMS = append(p.updateMS, ms(time.Since(t)))

	p.attempted++
	t = time.Now()
	got, err := r.c.Restore(r.env)
	lat := time.Since(t)
	if err != nil {
		p.fail("restore after %d: %v", p.lastAck, err)
		return
	}
	p.restoreMS = append(p.restoreMS, ms(lat))
	if traced {
		p.harvest(r.srv.Traces(), "restore", r.placed.Spec.Name, got, lat)
	}
	t = time.Now()
	var bad int
	if want != nil {
		bad = r.placed.VerifyDigests(r.w.blockBytes, want)
	} else {
		bad = r.placed.VerifyIteration(p.lastAck)
	}
	p.verifyMS = append(p.verifyMS, ms(captured+time.Since(t)))
	switch {
	case got != p.lastAck:
		p.fail("restore returned iteration %d, last acknowledged checkpoint is %d", got, p.lastAck)
	case bad >= 0 && want != nil:
		p.fail("restore of iteration %d: content mismatch at block %d", got, bad)
	case bad >= 0:
		p.fail("restore of iteration %d: content mismatch at tensor %d", got, bad)
	}
}

// harvest waits for the stitched trace of one operation and keeps its
// stage breakdown.
func (p *tcpPhase) harvest(ring *telemetry.TraceRing, kind, model string, iter uint64, lat time.Duration) {
	tr := awaitStitched(ring, kind, model, iter, 2*time.Second)
	switch {
	case tr == nil:
		p.missingTraces++
	case kind == "checkpoint":
		p.ckptTraces = append(p.ckptTraces, breakdown(tr, lat))
	default:
		p.rstTraces = append(p.rstTraces, breakdown(tr, lat))
	}
}

// memDelta is the allocator activity between two snapshots.
func memDelta(a, b runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		Mallocs:      b.Mallocs - a.Mallocs,
		TotalAlloc:   b.TotalAlloc - a.TotalAlloc,
		NumGC:        b.NumGC - a.NumGC,
		PauseTotalNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// latestCommitted reads the daemon's newest durable iteration of the
// model straight from its index.
func (r *tcpRig) latestCommitted() (uint64, error) {
	m, err := r.srv.Daemon().Store().Lookup(r.placed.Spec.Name)
	if err != nil {
		return 0, err
	}
	_, v, ok := m.LatestDone()
	if !ok {
		return 0, fmt.Errorf("no committed version of %s", r.placed.Spec.Name)
	}
	return v.Iteration, nil
}
