package main

import (
	"fmt"
	"io"
	"strings"
)

// e2eDefs are the end-to-end metrics every workload reports with
// --trace 0. Latencies are on the workload's own clock: wall time on
// the tcp workloads, virtual time on sim-tenants (where README.md calls
// them vckpt_p50_ms, vckpt_tail_ms and vrestore_p50_ms).
var e2eDefs = []metricDef{
	{"ckpt_p50_ms", "ms"},      // Checkpoint called → durable ack
	{"ckpt_tail_ms", "ms"},     // the workload's fixed tail percentile
	{"restore_p50_ms", "ms"},   // includes the daemon's integrity gate
	{"ckpt_gbps", "GB/s"},      // model bytes ÷ mean commit latency
	{"wall_per_ckpt_ms", "ms"}, // wall time of the timed phase ÷ checkpoints
	{"setup_s", "s"},           // rig start, registration, warm-up (median)
	{"mem_peak_mib", "MiB"},    // peak resident memory of the process
}

// layerDefs are the per-layer metrics of a --trace 1 run. Span-derived
// ones are medians over the traced phase's operations on the
// workload's clock; counters are read from the daemon's and the
// client's registries around the traced phase and divided per
// operation. The overhead.* figures are traced minus untraced values
// of the end-to-end metrics.
var layerDefs = []metricDef{
	{"client.digest_ms", "ms"},
	{"client.send_ms", "ms"},
	{"client.await_ms", "ms"},
	{"client.busy_retries", "count/op"},
	{"wire.msgs_per_op", "count/op"},
	{"wire.bytes_per_op", "B/op"},
	{"sched.enqueue_wait_ms", "ms"},
	{"sched.coalesced", "count/ckpt"},
	{"sched.busy_replies", "count/op"},
	{"datapath.pull_ms", "ms"},
	{"datapath.flush_ms", "ms"},
	{"datapath.copy_forward_ms", "ms"},
	{"datapath.push_ms", "ms"},
	{"datapath.retries", "count/op"},
	{"rdma.read_ops_per_ckpt", "count/ckpt"},
	{"rdma.read_bytes_per_ckpt", "B/ckpt"},
	{"rdma.read_ms", "ms/ckpt"},
	{"rdma.write_bytes_per_restore", "B/restore"},
	{"rdma.write_ms", "ms/restore"},
	{"rdma.errors", "count"},
	{"pmem.flush_bytes_per_ckpt", "B/ckpt"},
	{"pmem.flush_ops_per_ckpt", "count/ckpt"},
	{"daemon.commit_ms", "ms"},
	{"daemon.restore_pre_push_ms", "ms"},
	{"delta.dirty_ratio", "ratio"},
	{"delta.bytes_saved_per_ckpt", "B/ckpt"},
	{"delta.full_fallbacks", "count"},
	{"store.live_bytes_per_model_byte", "ratio"},
	{"store.frag_bytes", "B"},
	{"sim.events_per_ckpt", "count/ckpt"},
	{"sim.run_wall_s", "s"},
	{"go.allocs_per_ckpt", "count/ckpt"},
	{"go.alloc_bytes_per_ckpt", "B/ckpt"},
	{"go.gc_cycles_per_ckpt", "count/ckpt"},
	{"go.gc_pause_ms", "ms/ckpt"},
	{"gpu.update_ms", "ms"},
	{"gpu.verify_ms", "ms"},
	{"trace.client_cover", "ratio"},
	{"trace.daemon_cover", "ratio"},
	{"trace.missing", "count"},
	{"overhead.ckpt_p50_ms", "ms"},
	{"overhead.ckpt_tail_ms", "ms"},
	{"overhead.restore_p50_ms", "ms"},
	{"overhead.ckpt_gbps", "GB/s"},
	{"overhead.wall_per_ckpt_ms", "ms"},
}

// report is everything one invocation measured and checked.
type report struct {
	workload string
	clock    string // "wall" or "virtual"
	tailP    float64
	samples  int // checkpoints behind the latency figures
	// A failed output check (a wrong restore, a lagging commit, a
	// delta fallback in the timed phase, virtual-time drift, an
	// untiled trace) counts as a failure too.
	opLog
	e2e    map[string]float64
	traced map[string]float64 // e2e figures of the traced phase
	layers map[string]float64
}

func (r *report) correct() bool { return r.failed == 0 }

// opLog counts the checkpoints and restores a phase attempted and how
// many failed, keeping the first few failure messages.
type opLog struct {
	attempted, failed int
	failures          []string
}

const maxFailureMessages = 8

func (o *opLog) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailureMessages {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check records a failed output check unless ok.
func (o *opLog) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

// merge folds another phase's log into o.
func (o *opLog) merge(p opLog) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < maxFailureMessages {
			o.failures = append(o.failures, f)
		}
	}
}

// measured is the raw material of the end-to-end metrics.
type measured struct {
	ckptMS, restoreMS []float64 // workload clock
	ckptBytes         float64   // model bytes over all timed checkpoints
	wallPerCkptMS     float64
	setupS            []float64
}

// e2eOf computes the end-to-end figures (all but mem_peak_mib, which
// the process reports once at exit).
func e2eOf(m measured, tailP float64) map[string]float64 {
	var total float64
	for _, x := range m.ckptMS {
		total += x
	}
	return map[string]float64{
		"ckpt_p50_ms":      median(m.ckptMS),
		"ckpt_tail_ms":     percentile(m.ckptMS, tailP),
		"restore_p50_ms":   median(m.restoreMS),
		"ckpt_gbps":        m.ckptBytes / (total / 1e3) / 1e9,
		"wall_per_ckpt_ms": m.wallPerCkptMS,
		"setup_s":          median(m.setupS),
	}
}

// addOverhead records traced-minus-untraced for the end-to-end figures
// a traced phase reproduces.
func (r *report) addOverhead() {
	for _, n := range []string{"ckpt_p50_ms", "ckpt_tail_ms", "restore_p50_ms", "ckpt_gbps", "wall_per_ckpt_ms"} {
		r.layers["overhead."+n] = r.traced[n] - r.e2e[n]
	}
}

// stageP50 is the median of one stage span over traces.
func stageP50(ts []opTrace, stage string) float64 {
	if len(ts) == 0 {
		return 0
	}
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.stages[stage]
	}
	return median(xs)
}

// covers returns the median client and daemon tiling ratios.
func covers(ts []opTrace) (client, daemon float64) {
	if len(ts) == 0 {
		return 0, 0
	}
	cs := make([]float64, len(ts))
	ds := make([]float64, len(ts))
	for i, t := range ts {
		cs[i], ds[i] = t.clientCover, t.daemonCover
	}
	return median(cs), median(ds)
}

// perOp divides, returning 0 for an empty denominator.
func perOp(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// window is the registry and span material of one traced phase.
type window struct {
	before, after, cBefore, cAfter scrape
	ckpts, restores                int
	ckptTraces, rstTraces          []opTrace
	modelBytes                     float64 // one copy of every model
	ckptBytes                      float64 // model bytes over all checkpoints
	msgs, bytes                    int64   // control-plane traffic (tcp)
	mallocs, allocBytes, gcs       uint64
	gcPauseNs                      uint64
}

// layersOf computes the per-layer figures shared by all workloads.
func layersOf(w window) map[string]float64 {
	ops := w.ckpts + w.restores
	d := func(name string, labels ...string) float64 { return diff(w.before, w.after, name, labels...) }
	cd := func(name string, labels ...string) float64 { return diff(w.cBefore, w.cAfter, name, labels...) }
	cc, dc := covers(w.ckptTraces)
	pulled := d("portus_daemon_bytes_pulled_total")
	l := map[string]float64{
		"client.digest_ms":    stageP50(w.ckptTraces, "digest"),
		"client.send_ms":      stageP50(w.ckptTraces, "send"),
		"client.await_ms":     stageP50(w.ckptTraces, "await"),
		"client.busy_retries": perOp(cd("portus_client_busy_retries_total"), ops),

		"wire.msgs_per_op":  perOp(float64(w.msgs), ops),
		"wire.bytes_per_op": perOp(float64(w.bytes), ops),

		"sched.enqueue_wait_ms": stageP50(w.ckptTraces, "enqueue-wait"),
		"sched.coalesced":       perOp(d("portus_sched_coalesced_total"), w.ckpts),
		"sched.busy_replies":    perOp(d("portus_sched_busy_replies_total"), ops),

		"datapath.pull_ms":         stageP50(w.ckptTraces, "pull"),
		"datapath.flush_ms":        stageP50(w.ckptTraces, "flush"),
		"datapath.copy_forward_ms": stageP50(w.ckptTraces, "copy-forward"),
		"datapath.push_ms":         stageP50(w.rstTraces, "push"),
		"datapath.retries":         perOp(d("portus_datapath_retries_total"), ops),

		"rdma.read_ops_per_ckpt":       perOp(d("portus_rdma_ops_total", "op=read"), w.ckpts),
		"rdma.read_bytes_per_ckpt":     perOp(d("portus_rdma_bytes_total", "op=read"), w.ckpts),
		"rdma.read_ms":                 perOp(1e3*d("portus_rdma_op_seconds_sum", "op=read"), w.ckpts),
		"rdma.write_bytes_per_restore": perOp(d("portus_rdma_bytes_total", "op=write"), w.restores),
		"rdma.write_ms":                perOp(1e3*d("portus_rdma_op_seconds_sum", "op=write"), w.restores),
		"rdma.errors":                  d("portus_rdma_errors_total"),

		"pmem.flush_bytes_per_ckpt": perOp(d("portus_pmem_flush_bytes_total"), w.ckpts),
		"pmem.flush_ops_per_ckpt":   perOp(d("portus_pmem_flush_ops_total"), w.ckpts),

		"daemon.commit_ms":           stageP50(w.ckptTraces, "commit"),
		"daemon.restore_pre_push_ms": stageP50(w.rstTraces, "enqueue-wait"),

		"delta.dirty_ratio":          pulled / w.ckptBytes,
		"delta.bytes_saved_per_ckpt": perOp(d("portus_delta_bytes_saved_total"), w.ckpts),
		"delta.full_fallbacks":       d("portus_delta_full_fallbacks_total"),

		"store.live_bytes_per_model_byte": w.after.sum("portus_store_live_bytes") / w.modelBytes,
		"store.frag_bytes":                w.after.sum("portus_store_frag_bytes"),

		"go.allocs_per_ckpt":      perOp(float64(w.mallocs), w.ckpts),
		"go.alloc_bytes_per_ckpt": perOp(float64(w.allocBytes), w.ckpts),
		"go.gc_cycles_per_ckpt":   perOp(float64(w.gcs), w.ckpts),
		"go.gc_pause_ms":          perOp(float64(w.gcPauseNs)/1e6, w.ckpts),

		"trace.client_cover": cc,
		"trace.daemon_cover": dc,
	}
	return l
}

// print writes the human-readable report: the end-to-end figures under
// their documented names, and for traced runs the per-layer table,
// tracing overhead and tiling.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s (%s clock, %d checkpoints, tail = p%g)\n", r.workload, r.clock, r.samples, r.tailP)
	prefix := ""
	if r.clock == "virtual" {
		prefix = "v"
	}
	named := []struct{ name, key, unit string }{
		{prefix + "ckpt_p50_ms", "ckpt_p50_ms", "ms"},
		{prefix + "ckpt_tail_ms", "ckpt_tail_ms", "ms"},
		{prefix + "restore_p50_ms", "restore_p50_ms", "ms"},
		{"ckpt_gbps", "ckpt_gbps", "GB/s"},
		{"wall_per_ckpt_ms", "wall_per_ckpt_ms", "ms"},
		{"setup_s", "setup_s", "s"},
		{"mem_peak_mib", "mem_peak_mib", "MiB"},
	}
	if r.clock == "virtual" {
		named[4].name = "sim_wall_per_ckpt_ms"
	}
	fmt.Fprintln(w, "  end to end (untraced):")
	for _, n := range named {
		fmt.Fprintf(w, "    %-24s %14.4f %s\n", n.name, r.e2e[n.key], n.unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "    %-24s %14.4f ratio (%d failed of %d)\n", "op_fail_ratio", ratio, r.failed, r.attempted)
	if traced {
		fmt.Fprintln(w, "  per layer (traced):")
		for _, d := range layerDefs {
			if !strings.HasPrefix(d.Name, "overhead.") {
				fmt.Fprintf(w, "    %-32s %16.4f %s\n", d.Name, r.layers[d.Name], d.Unit)
			}
		}
		fmt.Fprintln(w, "  tracing overhead (traced − untraced):")
		for _, n := range named[:5] {
			fmt.Fprintf(w, "    %-24s %14.4f %s\n", n.name, r.layers["overhead."+n.key], n.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
