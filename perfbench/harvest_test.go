package main

import (
	"net"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

func TestScrapeSumsAndDiffsSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	read := reg.Counter("portus_rdma_bytes_total", "", telemetry.L("fabric", "data"), telemetry.L("op", "read"))
	write := reg.Counter("portus_rdma_bytes_total", "", telemetry.L("fabric", "data"), telemetry.L("op", "write"))
	other := reg.Counter("portus_rdma_bytes_total", "", telemetry.L("fabric", "ctl"), telemetry.L("op", "read"))
	plain := reg.Counter("portus_daemon_checkpoints_total", "")
	// A prefix of another metric's name must not be summed into it.
	reg.Counter("portus_daemon_checkpoints_total_extra", "").Add(100)
	h := reg.Histogram("portus_rdma_op_seconds", "", nil, telemetry.L("op", "read"))
	var pulled float64
	reg.CounterFunc("portus_pmem_flush_bytes_total", "", func() float64 { return pulled })

	before, err := takeScrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	read.Add(10)
	write.Add(5)
	other.Add(7)
	plain.Add(3)
	h.Observe(0.25)
	h.Observe(0.5)
	pulled = 4096
	after, err := takeScrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"portus_rdma_bytes_total", nil, 22},
		{"portus_rdma_bytes_total", []string{"op=read"}, 17},
		{"portus_rdma_bytes_total", []string{"op=read", "fabric=data"}, 10},
		{"portus_rdma_bytes_total", []string{"op=send"}, 0},
		{"portus_daemon_checkpoints_total", nil, 3},
		{"portus_rdma_op_seconds_sum", []string{"op=read"}, 0.75},
		{"portus_rdma_op_seconds_count", []string{"op=read"}, 2},
		{"portus_pmem_flush_bytes_total", nil, 4096},
	} {
		if got := diff(before, after, c.name, c.labels...); got != c.want {
			t.Errorf("diff %s %v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
}

// stitched builds the span tree a checkpoint leaves in the daemon's
// ring once the client's report has been stitched in.
func stitched(ring *telemetry.TraceRing, iteration uint64) {
	d := telemetry.NewTrace("checkpoint", "m", iteration, 10*time.Millisecond)
	d.ID = telemetry.TraceID(iteration)
	d.ParentSpan = 99
	d.Root.Child("enqueue-wait", 10*time.Millisecond).EndAt(11 * time.Millisecond)
	pull := d.Root.Child("pull", 11*time.Millisecond)
	pull.Child("pull:t0#0", 11*time.Millisecond).EndAt(20 * time.Millisecond)
	pull.EndAt(20 * time.Millisecond)
	d.Root.Child("flush", 20*time.Millisecond).EndAt(24 * time.Millisecond)
	d.Root.Child("commit", 24*time.Millisecond).EndAt(29 * time.Millisecond)
	d.Finish(29 * time.Millisecond)
	ring.Add(d)

	c := &telemetry.Span{Name: "client:checkpoint", Start: 0}
	c.Child("digest", 0).EndAt(8 * time.Millisecond)
	c.Child("send", 8*time.Millisecond).EndAt(9 * time.Millisecond)
	await := c.Child("await", 9*time.Millisecond)
	await.ID = 99
	await.EndAt(30 * time.Millisecond)
	c.EndAt(30 * time.Millisecond)
	ring.Stitch(telemetry.TraceID(iteration), c)
}

func TestTraceHarvest(t *testing.T) {
	ring := telemetry.NewTraceRing(8)
	if findStitched(ring, "checkpoint", "m", 7) != nil {
		t.Fatal("found a trace in an empty ring")
	}
	unstitched := telemetry.NewTrace("checkpoint", "m", 8, 0)
	unstitched.ID = 8
	unstitched.Finish(time.Millisecond)
	ring.Add(unstitched)
	stitched(ring, 7)
	if findStitched(ring, "checkpoint", "m", 8) != nil {
		t.Error("a trace without its client half counted as stitched")
	}
	if findStitched(ring, "restore", "m", 7) != nil {
		t.Error("kind was not matched")
	}
	tr := awaitStitched(ring, "checkpoint", "m", 7, time.Second)
	if tr == nil {
		t.Fatal("stitched trace not found")
	}
	ot := breakdown(tr, 30*time.Millisecond)
	for stage, want := range map[string]float64{
		"digest": 8, "send": 1, "await": 21, "enqueue-wait": 1,
		"pull": 9, "flush": 4, "commit": 5, "copy-forward": 0, "push": 0,
	} {
		if got := ot.stages[stage]; got != want {
			t.Errorf("%s = %g ms, want %g", stage, got, want)
		}
	}
	if ot.clientCover != 1 {
		t.Errorf("client cover %g, want 1", ot.clientCover)
	}
	if want := 19.0 / 22; ot.daemonCover != want {
		t.Errorf("daemon cover %g, want %g", ot.daemonCover, want)
	}
	if got := stageP50([]opTrace{ot, ot, breakdown(tr, 60*time.Millisecond)}, "pull"); got != 9 {
		t.Errorf("stage p50 %g, want 9", got)
	}
	start := time.Now()
	if awaitStitched(ring, "checkpoint", "m", 8, 5*time.Millisecond) != nil || time.Since(start) < 5*time.Millisecond {
		t.Error("awaitStitched did not wait out its limit for a missing trace")
	}
}

func TestWireStatsCountsMessagesAndBytes(t *testing.T) {
	a, b := net.Pipe()
	var ws wireStats
	conn := ws.wrap(a)
	peer := wire.NewNetConn(b)
	env := sim.NewRealEnv()
	done := make(chan error, 1)
	go func() {
		m, err := peer.Recv(env)
		if err == nil {
			err = peer.Send(env, &wire.Msg{Type: wire.TCheckpointDone, Iteration: m.Iteration})
		}
		done <- err
	}()
	digests := make([]uint64, 1000)
	for i := range digests {
		digests[i] = ^uint64(i)
	}
	if err := conn.Send(env, &wire.Msg{Type: wire.TDoCheckpoint, Iteration: 3, Digests: digests}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv(env)
	if err != nil || m.Iteration != 3 {
		t.Fatalf("recv = %+v, %v", m, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	msgs, bytes := ws.totals()
	if msgs != 2 {
		t.Errorf("counted %d messages, want 2", msgs)
	}
	// The digest vector dominates the request's gob encoding.
	if bytes < 8000 || ws.bytesOut.Load() <= ws.bytesIn.Load() {
		t.Errorf("counted %d bytes (out %d, in %d)", bytes, ws.bytesOut.Load(), ws.bytesIn.Load())
	}
	conn.Close()
	if _, err := conn.Recv(env); err == nil {
		t.Error("recv on a closed connection succeeded")
	}
	if msgs2, _ := ws.totals(); msgs2 != msgs {
		t.Error("a failed receive was counted")
	}
}
