package main

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// scrape is a point-in-time copy of a registry, read back through the
// same Prometheus text exposition the daemon serves at /metrics.
type scrape []telemetry.Sample

// takeScrape renders reg and parses it back.
func takeScrape(reg *telemetry.Registry) (scrape, error) {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return telemetry.ParseText(&buf)
}

// sum adds every series of metric name whose labels include all of
// the given k=v pairs (e.g. sum("portus_rdma_bytes_total", "op=read")).
func (s scrape) sum(name string, want ...string) float64 {
	var total float64
	for _, smp := range s {
		if smp.Name == name && hasLabels(smp.Labels, want) {
			total += smp.Value
		}
	}
	return total
}

// hasLabels reports whether labels carries every k=v pair of want.
func hasLabels(labels map[string]string, want []string) bool {
	for _, kv := range want {
		k, v, _ := strings.Cut(kv, "=")
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// diff returns after-minus-before of one summed metric: the activity
// of a counter (or histogram _sum/_count) over a window.
func diff(before, after scrape, name string, want ...string) float64 {
	return after.sum(name, want...) - before.sum(name, want...)
}

// spanMS sums the durations, in milliseconds, of every span named name
// in the tree rooted at root (chunk spans carry suffixed names, so the
// stage spans are matched exactly).
func spanMS(root *telemetry.Span, name string) float64 {
	var d time.Duration
	root.Walk(func(s *telemetry.Span) {
		if s.Name == name {
			d += s.Dur()
		}
	})
	return ms(d)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opTrace is the stage breakdown of one stitched request trace and how
// well it tiles the latency the benchmark observed around the call.
type opTrace struct {
	stages map[string]float64 // ms per stage span name
	// clientCover is (digest+send+await)/observed; daemonCover is the
	// daemon's stage spans over send+await (the daemon starts work as
	// soon as the request is decoded, which may be before the client's
	// send returns). Both near 1 mean the spans tile the latency.
	clientCover, daemonCover float64
}

// stageNames are the span names the trace ring carries at layer
// boundaries: client-side digest/send/await, then the daemon's stages.
var stageNames = []string{"digest", "send", "await",
	"enqueue-wait", "pull", "flush", "copy-forward", "commit", "push"}

// daemonStages are the daemon's top-level stage spans under await.
var daemonStages = []string{"enqueue-wait", "pull", "flush", "copy-forward", "commit", "push"}

// breakdown reads one stitched trace's stage spans.
func breakdown(tr *telemetry.Trace, observed time.Duration) opTrace {
	ot := opTrace{stages: make(map[string]float64, len(stageNames))}
	for _, n := range stageNames {
		ot.stages[n] = spanMS(tr.Root, n)
	}
	client := ot.stages["digest"] + ot.stages["send"] + ot.stages["await"]
	var daemon float64
	for _, n := range daemonStages {
		daemon += ot.stages[n]
	}
	if observed > 0 {
		ot.clientCover = client / ms(observed)
	}
	if a := ot.stages["send"] + ot.stages["await"]; a > 0 {
		ot.daemonCover = daemon / a
	}
	return ot
}

// findStitched returns the newest stitched trace of (kind, model,
// iteration) in ring, or nil.
func findStitched(ring *telemetry.TraceRing, kind, model string, iteration uint64) *telemetry.Trace {
	for _, tr := range ring.Snapshot() {
		if tr.Stitched && tr.Kind == kind && tr.Model == model && tr.Iteration == iteration {
			return tr
		}
	}
	return nil
}

// awaitStitched polls ring until the client's TRACE_REPORT for (kind,
// model, iteration) has been stitched in, for up to limit of wall time.
// The report is fire-and-forget, so over TCP it lands shortly after
// the call returns.
func awaitStitched(ring *telemetry.TraceRing, kind, model string, iteration uint64, limit time.Duration) *telemetry.Trace {
	deadline := time.Now().Add(limit)
	for {
		if tr := findStitched(ring, kind, model, iteration); tr != nil {
			return tr
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// byteCounter wraps the control socket and counts the bytes crossing
// it in each direction — the gob-encoded size of every message.
type byteCounter struct {
	net.Conn
	in, out *atomic.Int64
}

func (c byteCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c byteCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// msgCounter wraps a control connection and counts messages.
type msgCounter struct {
	wire.Conn
	sent, recvd *atomic.Int64
}

func (c msgCounter) Send(env sim.Env, m *wire.Msg) error {
	err := c.Conn.Send(env, m)
	if err == nil {
		c.sent.Add(1)
	}
	return err
}

func (c msgCounter) Recv(env sim.Env) (*wire.Msg, error) {
	m, err := c.Conn.Recv(env)
	if err == nil {
		c.recvd.Add(1)
	}
	return m, err
}

// wireStats accumulates control-plane traffic of one client.
type wireStats struct {
	bytesIn, bytesOut, msgsSent, msgsRecvd atomic.Int64
}

// wrap instruments a freshly dialed control socket.
func (w *wireStats) wrap(sock net.Conn) wire.Conn {
	nc := wire.NewNetConn(byteCounter{Conn: sock, in: &w.bytesIn, out: &w.bytesOut})
	return msgCounter{Conn: nc, sent: &w.msgsSent, recvd: &w.msgsRecvd}
}

// totals reports messages and bytes in both directions so far.
func (w *wireStats) totals() (msgs, bytes int64) {
	return w.msgsSent.Load() + w.msgsRecvd.Load(), w.bytesIn.Load() + w.bytesOut.Load()
}
