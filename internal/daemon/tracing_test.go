package daemon_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// settleTraces lets the client's fire-and-forget trace report cross the
// simulated control plane and stitch into the daemon's ring.
func settleTraces(env sim.Env) { env.Sleep(20 * time.Millisecond) }

// TestStitchedTraceSumsToEndToEnd extends the PR-1 acceptance check
// across the wire: after the client's trace report lands, the ring
// holds ONE stitched trace whose root is the client's span tree, whose
// client-side spans tile the end-to-end latency exactly, and whose
// daemon-side tree hangs under the await span.
func TestStitchedTraceSumsToEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		settleTraces(env)

		snap := d.Traces().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("trace ring holds %d traces, want 1 (stitching must replace, not append)", len(snap))
		}
		tr := snap[0]
		if !tr.Stitched {
			t.Fatal("trace not stitched after the client report")
		}
		if tr.ID == 0 {
			t.Fatal("stitched trace carries no client-minted TraceID")
		}
		if tr.Kind != "checkpoint" || tr.Model != "traced" || tr.Iteration != 1 {
			t.Fatalf("stitched identity = kind=%q model=%q iter=%d", tr.Kind, tr.Model, tr.Iteration)
		}
		if tr.Root.Name != "client:checkpoint" {
			t.Fatalf("stitched root = %q, want the client root", tr.Root.Name)
		}

		// Client-side spans tile the root: send + await == end to end.
		send, await := tr.Root.Find("send"), tr.Root.Find("await")
		if send == nil || await == nil {
			t.Fatal("stitched trace missing client send/await spans")
		}
		if got := send.Dur() + await.Dur(); got != tr.Duration {
			t.Fatalf("client span sum %v != end-to-end %v", got, tr.Duration)
		}
		if tr.Duration <= 0 {
			t.Fatal("stitched duration must be positive")
		}

		// The daemon's tree grafts under await, and its own stages still
		// sum to the daemon-side span exactly.
		var dmn *telemetry.Span
		for _, sp := range await.Children {
			if sp.Name == "checkpoint" {
				dmn = sp
			}
		}
		if dmn == nil {
			t.Fatalf("daemon tree not grafted under await: children %+v", await.Children)
		}
		var sum time.Duration
		for _, name := range []string{"enqueue-wait", "pull", "flush", "commit"} {
			sp := dmn.Find(name)
			if sp == nil {
				t.Fatalf("daemon stage %q missing from stitched tree", name)
			}
			sum += sp.Dur()
		}
		if sum != dmn.Dur() {
			t.Fatalf("daemon stage sum %v != daemon span %v", sum, dmn.Dur())
		}

		// The waterfall renders the whole stitched tree.
		var buf bytes.Buffer
		telemetry.WriteWaterfall(&buf, tr)
		out := buf.String()
		for _, want := range []string{"client:checkpoint", "send", "await", "enqueue-wait", "flush", "trace=" + tr.ID.String()} {
			if !strings.Contains(out, want) {
				t.Fatalf("waterfall missing %q:\n%s", want, out)
			}
		}
	})
	eng.Run()
}

// TestUntracedClientStillServed is the compatibility check: a raw
// request with a zero TraceID (an old client that predates trace
// propagation) must be served normally and produce an ordinary,
// unstitched daemon trace.
func TestUntracedClientStillServed(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		// Reach the daemon over a second raw connection, using the
		// session the instrumented client registered.
		net := simNetOf(t, env, d)
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(env, &wire.Msg{Type: wire.TDoCheckpoint, Model: "traced", Iteration: 9}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TCheckpointDone || resp.Iteration != 9 {
			t.Fatalf("untraced checkpoint response = %+v", resp)
		}
		settleTraces(env)
		snap := d.Traces().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("trace ring holds %d traces, want 1", len(snap))
		}
		tr := snap[0]
		if tr.ID != 0 || tr.Stitched {
			t.Fatalf("untraced request produced id=%s stitched=%v, want zero/unstitched", tr.ID, tr.Stitched)
		}
		if tr.Err != "" || tr.Root.Find("pull") == nil {
			t.Fatalf("untraced trace malformed: %+v", tr)
		}
		_ = c
	})
	eng.Run()
}

// TestTraceReportForEvictedTraceIsIgnored: a report whose trace has
// already left the ring (or never existed) must not error the
// connection or disturb other traffic.
func TestTraceReportForUnknownTraceIsIgnored(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		net := simNetOf(t, env, d)
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		// Unknown id, garbage payload: fire-and-forget, no reply.
		if err := conn.Send(env, &wire.Msg{Type: wire.TTraceReport, Model: "traced", TraceID: 0xfeed, Payload: []byte("{not json")}); err != nil {
			t.Fatal(err)
		}
		// The connection still serves ordinary requests afterwards.
		if err := conn.Send(env, &wire.Msg{Type: wire.TList}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TListResp {
			t.Fatalf("resp after trace report = %+v, want LIST_RESP (report must not generate a reply)", resp)
		}
		_ = c
	})
	eng.Run()
}

// simNetOf serves an already-running daemon on a second control-plane
// listener, so tests can dial raw wire connections alongside the
// instrumented client startTracedDaemon registered.
func simNetOf(t *testing.T, env sim.Env, d *daemon.Daemon) *wire.SimNet {
	t.Helper()
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve-raw", func(env sim.Env) { d.Serve(env, l) })
	return net
}

// TestWatchdogCapturesSlowCheckpoint pushes a transfer past the
// watchdog budget with an injected fabric delay (internal/faults) and
// checks the full evidence chain: portus_slow_transfers_total
// increments, the incident lands with its trace, and the flight
// recorder holds both the injected-fault events and the watchdog
// marker.
func TestWatchdogCapturesSlowCheckpoint(t *testing.T) {
	// Pass 1 (no faults, no budget): measure the baseline checkpoint
	// duration under the deterministic sim clock.
	var baseline time.Duration
	eng := sim.NewEngine()
	eng.Go("baseline", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		baseline = d.Traces().Snapshot()[0].Duration
	})
	eng.Run()
	if baseline <= 0 {
		t.Fatalf("baseline duration = %v", baseline)
	}

	// Pass 2: budget just above baseline, every verb delayed enough to
	// blow well past it.
	eng = sim.NewEngine()
	eng.Go("slow", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 16 << 20, PMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		// Every data-plane verb stalls for a full baseline, so one
		// checkpoint overshoots the budget by construction.
		inj := faults.NewInjector(faults.Config{
			Delay: faults.Rule{Rate: 1}, DelayBy: baseline,
		})
		d, err := daemon.New(env, daemon.Config{
			PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode,
			Fabric:    inj.Fabric(cl.Fabric),
			Telemetry: reg, TraceDepth: 8,
			SlowBudget: baseline + baseline/4,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

		spec := model.GPT("traced", 2, 64, 512, 10*time.Millisecond)
		placed, err := gpu.Place(cl.GPU(0, 0), spec)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Register(env, conn, cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		settleTraces(env)

		if got := countSlow(reg); got != 1 {
			t.Fatalf("portus_slow_transfers_total = %v, want 1", got)
		}
		incidents := d.Watchdog().Incidents()
		if len(incidents) != 1 {
			t.Fatalf("incidents = %d, want 1", len(incidents))
		}
		inc := incidents[0]
		if inc.Trace == nil || inc.Trace.Kind != "checkpoint" {
			t.Fatalf("incident trace = %+v", inc.Trace)
		}
		if inc.Budget != baseline+baseline/4 {
			t.Fatalf("incident budget = %v, want %v", inc.Budget, baseline+baseline/4)
		}
		var sawWatchdog bool
		for _, ev := range d.Events().Snapshot() {
			if ev.Kind == telemetry.EvWatchdogSlow {
				sawWatchdog = true
			}
		}
		if !sawWatchdog {
			t.Fatal("flight recorder missing the watchdog.slow marker")
		}
	})
	eng.Run()
}

func countSlow(reg *telemetry.Registry) float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	samples, err := telemetry.ParseText(&buf)
	if err != nil {
		return -1
	}
	for _, s := range samples {
		if s.Name == "portus_slow_transfers_total" {
			return s.Value
		}
	}
	return -1
}

// TestRestoreVerifyIsNotQueueing runs a restore on the wall clock, where
// the CRC integrity gate takes real time, and checks that the gate is
// its own "verify" span: enqueue-wait matches the scheduler's wait for
// the request, ends where verify begins, and is all the enqueue-wait
// histogram records — the CRC is work, not time waiting for a worker.
func TestRestoreVerifyIsNotQueueing(t *testing.T) {
	env := sim.NewRealEnv()
	fabric := rdma.NewTCPFabric(env)
	defer fabric.Close()
	storage := rdma.NewNode(env, "storage")
	if _, err := fabric.Serve(storage, ""); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pm := pmem.New(pmem.Config{Name: "pm0", DataSize: 112 << 20, MetaSize: 8 << 20, Materialized: true})
	d, err := daemon.New(env, daemon.Config{PMem: pm, RNode: storage, Fabric: fabric, Telemetry: reg, TraceDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go d.Serve(env, wire.NetListener{L: ln})

	node := rdma.NewNode(env, "client0")
	if _, err := fabric.Serve(node, ""); err != nil {
		t.Fatal(err)
	}
	spec := model.Spec{Name: "gated", IterTime: time.Millisecond}
	for i := 0; i < 6; i++ {
		spec.Tensors = append(spec.Tensors, index.TensorMeta{
			Name: fmt.Sprintf("w%d", i), DType: index.F32, Dims: []int64{2 << 20}, Size: 8 << 20,
		})
	}
	placed, err := gpu.Place(gpu.New("gpu0", 64<<20, true), spec)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Register(env, wire.NewNetConn(sock), node, placed)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	placed.ApplyUpdate(1)
	if err := c.CheckpointSync(env, 1); err != nil {
		t.Fatal(err)
	}

	enqueueWait := reg.Histogram("portus_checkpoint_enqueue_wait_seconds", "", nil)
	schedWait := reg.Histogram("portus_sched_wait_seconds", "", nil, telemetry.L("class", "restore"))
	waitBefore := enqueueWait.Sum()
	if _, err := c.Restore(env); err != nil {
		t.Fatal(err)
	}
	var tr *telemetry.Trace
	for _, x := range d.Traces().Snapshot() {
		if x.Kind == "restore" {
			tr = x
		}
	}
	if tr == nil {
		t.Fatal("no restore trace")
	}
	wait, verify, push := tr.Root.Find("enqueue-wait"), tr.Root.Find("verify"), tr.Root.Find("push")
	if wait == nil || verify == nil || push == nil {
		t.Fatalf("restore trace lacks enqueue-wait/verify/push: %+v", tr.Root.Children)
	}
	if verify.Dur() <= 0 {
		t.Fatalf("verify span %v, want the CRC gate's wall time", verify.Dur())
	}
	if wait.End != verify.Start || verify.End > push.Start {
		t.Fatalf("stages out of order: enqueue-wait ends %v, verify [%v,%v), push starts %v",
			wait.End, verify.Start, verify.End, push.Start)
	}
	sched := time.Duration(schedWait.Sum() * float64(time.Second))
	if diff := (wait.Dur() - sched).Abs(); diff > verify.Dur()/2 {
		t.Fatalf("enqueue-wait %v, scheduler wait %v: off by %v with a %v gate", wait.Dur(), sched, diff, verify.Dur())
	}
	recorded := time.Duration((enqueueWait.Sum() - waitBefore) * float64(time.Second))
	if diff := (recorded - wait.Dur()).Abs(); diff > time.Microsecond {
		t.Fatalf("enqueue-wait histogram recorded %v for the restore, span is %v", recorded, wait.Dur())
	}
	if bad := placed.VerifyIteration(1); bad != -1 {
		t.Fatalf("tensor %d wrong after restore", bad)
	}
}
