// Package daemon implements the Portus Daemon: the user-space service on
// the storage node that owns the devdax PMem namespace and performs all
// checkpoint data movement (§III-B).
//
// On registration it builds the model's three-level index — ModelTable
// entry, MIndex record, and two pre-allocated TensorData version slots
// per tensor — and keeps the in-DRAM ModelMap (a red-black tree) for
// lookups. On DO_CHECKPOINT a thread-pool worker pulls every tensor from
// the client's GPU memory with one-sided RDMA READs directly into PMem:
// no serialization, no kernel crossings, no intermediate copies. Restore
// is the inverse — one-sided RDMA WRITEs from PMem into GPU memory.
//
// Crash consistency follows the paper's double-mapping scheme: the
// target version slot is marked active (8-byte failure-atomic persist)
// before any data moves, its TensorData is flushed, and only then is the
// slot marked done — so recovery always finds the newest complete
// version.
package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rbtree"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sched"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// Config parameterizes a daemon.
type Config struct {
	PMem   *pmem.Device
	RNode  *rdma.Node
	Fabric rdma.Fabric
	// NodeName identifies this daemon's storage node within a
	// multi-daemon group; defaults to the RDMA node's name. Reported in
	// LIST responses and checked against the placement table.
	NodeName string
	// Group is the storage tier's placement table, shared by every
	// member daemon. Nil means a single-node group containing only this
	// daemon (the classic topology); registrations for models the table
	// assigns elsewhere are refused, steering stale clients to re-fetch
	// routing via PLACEMENT.
	Group *placement.Map
	// Replicas is the group's replication factor: a registration is
	// accepted when this node is any of the model's top-Replicas
	// rendezvous owners, not just the primary. 0 or 1 means unreplicated
	// (the classic topology).
	Replicas int
	// Workers sizes the thread pool; defaults to 8.
	Workers int
	// TableCap bounds the ModelTable; defaults to 512.
	TableCap int64
	// QueueCap bounds the requests queued across all models before the
	// daemon answers BUSY; 0 defaults to 64, negative means unbounded.
	QueueCap int
	// ModelQueueCap bounds the requests queued per model; 0 defaults to
	// 8, negative means unbounded.
	ModelQueueCap int
	// SchedPolicy selects the scheduler's picker: "fair" (weighted
	// round-robin across models, restores first — the default) or
	// "fifo" (strict global arrival order).
	SchedPolicy string
	// TwoSidedData switches the data plane to two-sided SEND/RECV-style
	// transfer costs (ablation only; see DESIGN.md §5).
	TwoSidedData bool
	// StageThroughHost adds a host-DRAM staging hop on the storage node
	// instead of the zero-copy pull (ablation only).
	StageThroughHost bool
	// PipelineDepth bounds the chunks in flight past the pull stage:
	// depth 1 (the default) is the strictly sequential
	// pull-everything-then-flush datapath; depth d >= 2 overlaps the
	// PMem flush of chunk N with the pull of chunk N+1.
	PipelineDepth int
	// Lanes is the number of queue pairs checkpoint/restore transfers
	// stripe chunks across; defaults to 1. Each lane beyond the first
	// pays one queue-pair connection at daemon startup.
	Lanes int
	// ChunkSize splits tensors into transfer chunks of at most this
	// many bytes; 0 (the default) keeps one chunk per tensor. Pipelining
	// and striping schedule whole chunks, so splitting only matters for
	// models dominated by a few huge tensors.
	ChunkSize int64
	// RetryMax bounds per-chunk transfer/flush attempts on transient
	// errors: 0 defaults to 3, negative disables retry (one attempt).
	RetryMax int
	// RetryBackoff is the delay before a chunk's second attempt,
	// doubling per further attempt; 0 defaults to 100µs, negative
	// disables backoff.
	RetryBackoff time.Duration
	// LaneFailLimit quarantines a lane after this many consecutive
	// failed attempts, re-striping its chunks over the healthy lanes:
	// 0 defaults to 3, negative disables quarantine.
	LaneFailLimit int
	// Degrade enables strategy degradation: when the active datapath
	// strategy hits a route-class error (the client's MR agent is
	// unreachable), the engine falls back one-sided → two-sided →
	// host-staged for the rest of that operation.
	Degrade bool
	// Flush overrides the PMem data-zone flush (fault injection); nil
	// uses PMem.FlushData, which cannot fail.
	Flush func(off, n int64) error
	// Telemetry receives the daemon's counters, gauges, and latency
	// histograms; nil creates a private registry (readable through
	// Daemon.Telemetry).
	Telemetry *telemetry.Registry
	// TraceDepth sizes the ring buffer of completed checkpoint/restore
	// traces; defaults to 64.
	TraceDepth int
	// EventDepth sizes the flight recorder (the bounded ring of typed
	// scheduling/datapath/fault events served at /debug/events);
	// defaults to 1024.
	EventDepth int
	// SlowBudget is the slow-transfer watchdog's latency budget: any
	// checkpoint or restore whose end-to-end (daemon-side) duration
	// exceeds it increments portus_slow_transfers_total and snapshots
	// its trace plus the surrounding flight-recorder window. 0 disables
	// the watchdog.
	SlowBudget time.Duration
	// RepackWatermark is the fragmented-bytes fraction of the data zone
	// at which the storage engine reports NeedsRepack; 0 defaults to
	// 0.5, negative disables the watermark (reclaim still runs when a
	// registration hits ErrNoSpace).
	RepackWatermark float64
	// RepackAuto starts an online repack pass in the background whenever
	// the watermark trips after a delete. Off by default; the
	// ErrNoSpace-triggered reclaim-then-retry on the registration path
	// is always on.
	RepackAuto bool
	// DeltaEnabled accepts incremental checkpoints: a DO_CHECKPOINT
	// carrying a block-digest vector is diffed against the previous
	// version's persisted digest table, only the dirty blocks are pulled
	// over the fabric, and the clean blocks copy forward inside PMem.
	// Off by default; digest vectors from delta clients are then ignored
	// (full checkpoint, counted as a fallback).
	DeltaEnabled bool
	// DeltaBlockBytes, when nonzero, pins the digest block size this
	// daemon accepts: a client vector at any other block size falls back
	// to a full checkpoint. 0 accepts whatever block size the client
	// used.
	DeltaBlockBytes int64
}

// Stats is a consistent snapshot of the daemon's cumulative counters:
//
//   - Registered, Checkpoints, Restores count successfully completed
//     registrations, committed checkpoint versions, and finished
//     restores.
//   - Errors counts every error the daemon has reported to a client
//     (malformed requests and datapath failures; BUSY backpressure
//     replies are counted separately in portus_sched_busy_replies_total).
//   - QueueDepth is the number of requests currently queued in the
//     scheduler but not yet picked up by a worker (an instantaneous
//     gauge read straight from the scheduler, not a cumulative count).
//   - BytesPulled and BytesPushed total the checkpoint (GPU→PMem) and
//     restore (PMem→GPU) data volumes.
//   - PullTime, FlushTime, and PushTime give the cumulative stage
//     breakdown of the datapath (Figure 13): one-sided READ pulls,
//     PMem flushes, and restore-side one-sided WRITE pushes.
type Stats struct {
	Registered  int64
	Checkpoints int64
	Restores    int64
	Errors      int64
	QueueDepth  int64
	BytesPulled int64
	BytesPushed int64
	PullTime    time.Duration
	FlushTime   time.Duration
	PushTime    time.Duration
}

// Daemon is a running Portus server.
type Daemon struct {
	cfg Config
	// eng is the storage engine owning the PMem namespace: transactional
	// admission, capacity accounting, and online reclamation all route
	// through it. store is the engine's index handle (read paths).
	eng    *store.Engine
	store  *index.Store
	dataMR rdma.MR

	// repackMu guards pass: the single in-flight online repack pass
	// (nil when none). Passes never overlap; a trigger arriving during
	// one joins it instead.
	repackMu sync.Mutex
	pass     *repackPass

	// nodeName and group identify this daemon's place in the storage
	// tier; group is never nil after New.
	nodeName string
	group    *placement.Map
	replicas int

	// flush is the resolved data-zone flush (cfg.Flush or the PMem
	// default), shared by the datapath engine and the anti-entropy LOAD
	// path.
	flush func(off, n int64) error

	// sched owns admission, dedup, coalescing, ordering, and
	// backpressure for every checkpoint/restore request; the daemon's
	// request path is a thin shim around Submit/Next/Done.
	sched *sched.Scheduler
	// lanePool leases the RDMA lane set fairly across concurrent
	// transfers instead of striping every job over all lanes.
	lanePool *sched.LanePool

	mu       sync.Mutex
	modelMap *rbtree.Tree[string, int64] // ModelMap: name -> info_offset
	sessions map[string]*session

	// connMu guards the set of live control connections; Halt closes
	// them all so a killed node's clients see the peer reset instead of
	// waiting on a silent daemon.
	connMu sync.Mutex
	conns  map[wire.Conn]struct{}

	stats struct {
		registered  atomic.Int64
		checkpoints atomic.Int64
		restores    atomic.Int64
		errors      atomic.Int64
		bytesPulled atomic.Int64
		bytesPushed atomic.Int64
		pullNanos   atomic.Int64
		flushNanos  atomic.Int64
		pushNanos   atomic.Int64
		// deltaDirty holds the last accepted delta plan's dirty ratio
		// as float64 bits (gauges are integral, so it is served through
		// a GaugeFunc).
		deltaDirty atomic.Uint64
	}

	// deltaCrash is a test hook fired at the crash boundaries of an
	// incremental checkpoint ("pre-copy-forward", "post-copy-forward",
	// "post-table"); returning true makes the request die at that point,
	// as a power failure would, committing nothing further.
	deltaCrash func(stage string) bool

	tel telem

	// engine executes checkpoint pulls and restore pushes over the
	// chunked, optionally pipelined/striped datapath.
	engine *datapath.Engine

	// staging resources for the ablation path
	hostStage *sim.BandwidthResource
}

// telem bundles the daemon's registered metric handles and the
// completed-trace ring.
type telem struct {
	reg      *telemetry.Registry
	traces   *telemetry.TraceRing
	events   *telemetry.EventRing
	watchdog *telemetry.Watchdog

	registered, checkpoints, restores, errors *telemetry.Counter
	bytesPulled, bytesPushed                  *telemetry.Counter
	retries, degradations, dedups             *telemetry.Counter
	slowTransfers                             *telemetry.Counter
	adminList, adminDump, adminDelete         *telemetry.Counter
	adminLoad, crcFailures                    *telemetry.Counter
	nospaceReplies                            *telemetry.Counter
	deltaSaved, deltaFallbacks                *telemetry.Counter
	quarantined                               *telemetry.Gauge

	ckptLatency    *telemetry.Histogram // enqueue → commit, end to end
	enqueueWait    *telemetry.Histogram
	pullStage      *telemetry.Histogram
	flushStage     *telemetry.Histogram
	pushStage      *telemetry.Histogram
	restoreLatency *telemetry.Histogram
}

func newTelem(reg *telemetry.Registry, traceDepth, eventDepth int, slowBudget time.Duration, pm *pmem.Device) telem {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if traceDepth == 0 {
		traceDepth = 64
	}
	t := telem{
		reg:         reg,
		traces:      telemetry.NewTraceRing(traceDepth),
		events:      telemetry.NewEventRing(eventDepth),
		registered:  reg.Counter("portus_daemon_registered_total", "model registrations accepted"),
		checkpoints: reg.Counter("portus_daemon_checkpoints_total", "checkpoint versions committed"),
		restores:    reg.Counter("portus_daemon_restores_total", "restores completed"),
		errors:      reg.Counter("portus_daemon_errors_total", "errors reported to clients"),
		bytesPulled: reg.Counter("portus_daemon_bytes_pulled_total", "checkpoint bytes pulled from GPU memory"),
		bytesPushed: reg.Counter("portus_daemon_bytes_pushed_total", "restore bytes pushed to GPU memory"),

		retries:      reg.Counter("portus_datapath_retries_total", "chunk transfers and flushes re-attempted after a transient error"),
		degradations: reg.Counter("portus_datapath_strategy_degradations_total", "datapath strategy fallbacks taken on route-class errors"),
		dedups:       reg.Counter("portus_daemon_dedup_total", "retried requests deduplicated instead of double-executed"),
		quarantined:  reg.Gauge("portus_datapath_quarantined_lanes", "lanes currently quarantined out of a transfer's stripe set"),

		slowTransfers: reg.Counter("portus_slow_transfers_total", "transfers whose end-to-end duration exceeded the slow-transfer budget"),

		adminList:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "list")),
		adminDump:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "dump")),
		adminDelete: reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "delete")),
		adminLoad:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "load")),

		crcFailures: reg.Counter("portus_daemon_crc_mismatch_total", "restore or load attempts that failed the stored-version CRC check"),

		nospaceReplies: reg.Counter("portus_store_nospace_replies_total", "registrations answered with a transient NO_SPACE retry-after (backpressure, not failures)"),

		deltaSaved:     reg.Counter("portus_delta_bytes_saved_total", "bytes an incremental checkpoint kept off the fabric (copy-forward + skipped blocks)"),
		deltaFallbacks: reg.Counter("portus_delta_full_fallbacks_total", "checkpoints that requested delta but ran full (missing/mismatched digest table, or delta costlier than full)"),

		ckptLatency:    reg.Histogram("portus_checkpoint_seconds", "end-to-end checkpoint latency (enqueue to commit)", nil),
		enqueueWait:    reg.Histogram("portus_checkpoint_enqueue_wait_seconds", "time a checkpoint job waits for a worker", nil),
		pullStage:      reg.Histogram("portus_checkpoint_pull_seconds", "one-sided RDMA pull stage duration", nil),
		flushStage:     reg.Histogram("portus_checkpoint_flush_seconds", "PMem flush stage duration", nil),
		pushStage:      reg.Histogram("portus_restore_push_seconds", "one-sided RDMA push stage duration", nil),
		restoreLatency: reg.Histogram("portus_restore_seconds", "end-to-end restore latency (enqueue to done)", nil),
	}
	reg.CounterFunc("portus_pmem_flush_ops_total", "data-zone flush operations",
		func() float64 { return float64(pm.DataFlushOps()) })
	reg.CounterFunc("portus_pmem_flush_bytes_total", "bytes covered by data-zone flushes",
		func() float64 { return float64(pm.DataFlushBytes()) })
	reg.CounterFunc("portus_pmem_meta_flush_ops_total", "metadata-zone flush operations (incl. version-flag commits)",
		func() float64 { return float64(pm.MetaFlushOps()) })
	// The watchdog observes every completed trace as it lands in the
	// ring; stitching a client tree in later never re-triggers it.
	t.watchdog = telemetry.NewWatchdog(slowBudget, t.events, t.slowTransfers)
	t.traces.OnComplete(t.watchdog.Observe)
	return t
}

// session is the live state of one registered model: the client's GPU
// memory regions keyed one-to-one to the model's tensors. Admission,
// dedup, and in-flight tracking all live in the scheduler; the session
// carries no request state.
type session struct {
	clientNode string
	mrs        []rdma.RemoteMR
	model      *index.Model
}

// reqCtx is the daemon-side payload of a scheduled task: the session
// the request runs against and the connection its reply goes to.
// Duplicate and coalesced submissions each carry their own reqCtx, so
// every surviving connection gets its acknowledgment.
type reqCtx struct {
	sess *session
	conn wire.Conn
	// digests/deltaBlock carry a delta client's block-digest vector from
	// DO_CHECKPOINT to the worker; empty means full checkpoint.
	digests    []uint64
	deltaBlock int64
}

// New opens (or formats) the namespace and starts the worker pool.
func New(env sim.Env, cfg Config) (*Daemon, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.TableCap == 0 {
		cfg.TableCap = 512
	}
	// The telemetry bundle comes first so the storage engine's gauges
	// land in the same registry.
	tel := newTelem(cfg.Telemetry, cfg.TraceDepth, cfg.EventDepth, cfg.SlowBudget, cfg.PMem)
	eng, err := store.Open(store.Config{
		PMem:      cfg.PMem,
		TableCap:  cfg.TableCap,
		Watermark: cfg.RepackWatermark,
		Telemetry: tel.reg,
		Events:    tel.events,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: opening namespace: %w", err)
	}
	var policy sched.Policy
	switch cfg.SchedPolicy {
	case "", "fair":
		policy = sched.Fair
	case "fifo":
		policy = sched.FIFO
	default:
		return nil, fmt.Errorf("daemon: unknown scheduler policy %q (want fair or fifo)", cfg.SchedPolicy)
	}
	nodeName := cfg.NodeName
	if nodeName == "" {
		nodeName = cfg.RNode.Name()
	}
	group := cfg.Group
	if group == nil {
		// Classic single-node topology: a one-member table that assigns
		// everything to this daemon.
		group, err = placement.New(placement.Node{Name: nodeName, Weight: cfg.PMem.DataSize()})
		if err != nil {
			return nil, fmt.Errorf("daemon: self placement: %w", err)
		}
	} else if _, ok := group.Lookup(nodeName); !ok {
		return nil, fmt.Errorf("daemon: node %q is not a member of the placement map", nodeName)
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	d := &Daemon{
		cfg:      cfg,
		eng:      eng,
		store:    eng.Index(),
		nodeName: nodeName,
		group:    group,
		replicas: replicas,
		modelMap: rbtree.New[string, int64](),
		sessions: make(map[string]*session),
		tel:      tel,
	}
	d.sched = sched.New(env, sched.Config{
		ModelQueueCap: cfg.ModelQueueCap,
		GlobalCap:     cfg.QueueCap,
		Workers:       cfg.Workers,
		Policy:        policy,
		Telemetry:     d.tel.reg,
		Events:        d.tel.events,
	})
	// The queue-depth gauge samples the scheduler — the single source of
	// truth — instead of mirroring it in a second atomic.
	d.tel.reg.GaugeFunc("portus_daemon_queue_depth", "requests queued in the scheduler but not yet picked up by a worker",
		func() float64 { return float64(d.sched.QueueDepth()) })
	// Route all data-plane verbs through the instrumented fabric so
	// per-op bytes and latency land in the registry.
	d.cfg.Fabric = rdma.Instrument("data", cfg.Fabric, d.tel.reg)
	// Register the whole data zone once; verbs address TensorData by
	// offset within it.
	d.dataMR = cfg.RNode.RegisterMR(env, cfg.PMem.Data(), 0, cfg.PMem.DataSize())
	if cfg.StageThroughHost || cfg.Degrade {
		// Degradation's last fallback stages through host DRAM, so the
		// staging resource must exist whenever the chain can reach it.
		d.hostStage = sim.NewBandwidthResource(env, "daemon/host-stage", perfmodel.ServerDRAMBW)
	}
	// The ablation variants are datapath strategies, not branches: the
	// engine's chunking, pipelining, and lane striping apply to all of
	// them uniformly.
	var strat datapath.Strategy = datapath.OneSided{}
	switch {
	case cfg.TwoSidedData:
		strat = datapath.TwoSided{}
	case cfg.StageThroughHost:
		strat = datapath.HostStaged{}
	}
	var fallbacks []datapath.Strategy
	if cfg.Degrade {
		for _, s := range []datapath.Strategy{datapath.OneSided{}, datapath.TwoSided{}, datapath.HostStaged{}} {
			if s.Name() != strat.Name() {
				fallbacks = append(fallbacks, s)
			}
		}
	}
	retry := datapath.RetryPolicy{
		MaxAttempts:   cfg.RetryMax,
		Backoff:       cfg.RetryBackoff,
		BackoffMax:    10 * time.Millisecond,
		LaneFailLimit: cfg.LaneFailLimit,
	}
	switch {
	case retry.MaxAttempts == 0:
		retry.MaxAttempts = 3
	case retry.MaxAttempts < 0:
		retry.MaxAttempts = 1
	}
	switch {
	case retry.Backoff == 0:
		retry.Backoff = 100 * time.Microsecond
	case retry.Backoff < 0:
		retry.Backoff = 0
	}
	switch {
	case retry.LaneFailLimit == 0:
		retry.LaneFailLimit = 3
	case retry.LaneFailLimit < 0:
		retry.LaneFailLimit = 0
	}
	flush := cfg.Flush
	if flush == nil {
		pm := cfg.PMem
		flush = func(off, n int64) error { pm.FlushData(off, n); return nil }
	}
	d.flush = flush
	engineLanes := rdma.ConnectLanes(env, cfg.RNode, cfg.Lanes)
	d.lanePool = sched.NewLanePool(engineLanes, d.tel.reg)
	d.engine = datapath.New(datapath.Config{
		Strategy:  strat,
		Fallbacks: fallbacks,
		Depth:     cfg.PipelineDepth,
		Lanes:     engineLanes,
		IssueCost: perfmodel.RDMAReadIssueCost,
		Flush:     flush,
		FlushCost: flushCost,
		Retry:     retry,
		Metrics: datapath.Metrics{
			Retries:          d.tel.retries,
			Degradations:     d.tel.degradations,
			QuarantinedLanes: d.tel.quarantined,
			Events:           d.tel.events,
		},
	})
	// Rebuild ModelMap from the persistent ModelTable (daemon restart).
	models, err := d.store.Models()
	if err != nil {
		return nil, fmt.Errorf("daemon: rebuilding ModelMap: %w", err)
	}
	for _, m := range models {
		d.modelMap.Put(m.Name, m.InfoOff())
	}
	// Cumulative stage times, sampled from the stats atomics at scrape
	// time (the Figure 13 breakdown as counters).
	d.tel.reg.CounterFunc("portus_daemon_pull_seconds_total", "cumulative RDMA pull stage time",
		func() float64 { return time.Duration(d.stats.pullNanos.Load()).Seconds() })
	d.tel.reg.CounterFunc("portus_daemon_flush_seconds_total", "cumulative PMem flush stage time",
		func() float64 { return time.Duration(d.stats.flushNanos.Load()).Seconds() })
	d.tel.reg.CounterFunc("portus_daemon_push_seconds_total", "cumulative restore push stage time",
		func() float64 { return time.Duration(d.stats.pushNanos.Load()).Seconds() })
	d.tel.reg.GaugeFunc("portus_delta_dirty_ratio", "fraction of the model the last accepted incremental checkpoint pulled over the fabric",
		func() float64 { return math.Float64frombits(d.stats.deltaDirty.Load()) })
	for w := 0; w < cfg.Workers; w++ {
		env.Go(fmt.Sprintf("portusd-worker-%d", w), d.worker)
	}
	return d, nil
}

// Store exposes the persistent index (for portusctl and the repacker).
func (d *Daemon) Store() *index.Store { return d.store }

// Engine exposes the storage engine (capacity stats, online repack).
func (d *Daemon) Engine() *store.Engine { return d.eng }

// NodeName is this daemon's storage-node identity within its group.
func (d *Daemon) NodeName() string { return d.nodeName }

// Group exposes the placement table this daemon serves PLACEMENT from.
func (d *Daemon) Group() *placement.Map { return d.group }

// Replicas is the group's replication factor as this daemon enforces
// it (>= 1).
func (d *Daemon) Replicas() int { return d.replicas }

// Halt stops the worker pool and severs every live control
// connection: workers blocked in Next return, queued tasks are
// dropped, later submissions are rejected with BUSY, and connected
// clients see the peer reset instead of waiting on a silent daemon.
// Whole-node fault injection uses it (together with closing the
// listener and cutting fabric routes) to make a storage node dead;
// a replacement daemon is a fresh New on a fresh namespace.
func (d *Daemon) Halt(env sim.Env) {
	d.sched.Close(env)
	d.connMu.Lock()
	conns := make([]wire.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.conns = nil
	d.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Telemetry exposes the daemon's metrics registry (served by the admin
// endpoint's /metrics).
func (d *Daemon) Telemetry() *telemetry.Registry { return d.tel.reg }

// Traces exposes the ring of recently completed checkpoint/restore
// traces (served by /debug/traces; portusd's -verbose log subscribes
// via OnComplete).
func (d *Daemon) Traces() *telemetry.TraceRing { return d.tel.traces }

// Events exposes the flight recorder — the bounded ring of typed
// scheduling/datapath/fault events (served by /debug/events).
func (d *Daemon) Events() *telemetry.EventRing { return d.tel.events }

// Watchdog exposes the slow-transfer watchdog (budget and captured
// incidents; served by /debug/events).
func (d *Daemon) Watchdog() *telemetry.Watchdog { return d.tel.watchdog }

// Stats snapshots the daemon counters; see Stats for field semantics.
func (d *Daemon) Stats() Stats {
	return Stats{
		Registered:  d.stats.registered.Load(),
		Checkpoints: d.stats.checkpoints.Load(),
		Restores:    d.stats.restores.Load(),
		Errors:      d.stats.errors.Load(),
		QueueDepth:  d.sched.QueueDepth(),
		BytesPulled: d.stats.bytesPulled.Load(),
		BytesPushed: d.stats.bytesPushed.Load(),
		PullTime:    time.Duration(d.stats.pullNanos.Load()),
		FlushTime:   time.Duration(d.stats.flushNanos.Load()),
		PushTime:    time.Duration(d.stats.pushNanos.Load()),
	}
}

// ModelNames returns the ModelMap keys in order.
func (d *Daemon) ModelNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modelMap.Keys()
}

// Serve accepts control connections until the listener closes.
func (d *Daemon) Serve(env sim.Env, l wire.Listener) {
	for {
		conn, err := l.Accept(env)
		if err != nil {
			return
		}
		env.Go("portusd-conn", func(env sim.Env) { d.handleConn(env, conn) })
	}
}

func (d *Daemon) handleConn(env sim.Env, conn wire.Conn) {
	d.connMu.Lock()
	if d.conns == nil {
		d.conns = make(map[wire.Conn]struct{})
	}
	d.conns[conn] = struct{}{}
	d.connMu.Unlock()
	defer func() {
		d.connMu.Lock()
		delete(d.conns, conn)
		d.connMu.Unlock()
	}()
	for {
		m, err := conn.Recv(env)
		if err != nil {
			return
		}
		switch m.Type {
		case wire.TRegister:
			d.handleRegister(env, conn, m)
		case wire.TDoCheckpoint:
			d.enqueue(env, conn, m, sched.ClassCheckpoint)
		case wire.TRestore:
			d.enqueue(env, conn, m, sched.ClassRestore)
		case wire.TList:
			d.handleList(env, conn)
		case wire.TDelete:
			d.handleDelete(env, conn, m)
		case wire.TDump:
			d.handleDump(env, conn, m)
		case wire.TLoad:
			d.handleLoad(env, conn, m)
		case wire.TRepack:
			d.handleRepack(env, conn, m)
		case wire.TPlacement:
			d.handlePlacement(env, conn)
		case wire.TTraceReport:
			d.handleTraceReport(m)
		default:
			// Echo the request's type so the client can correlate the
			// error to whichever waiter sent the malformed message.
			d.sendErrFor(env, conn, m.Type, m.Iteration, m.Model, fmt.Sprintf("unexpected message %s", m.Type))
		}
	}
}

// handleTraceReport stitches a client-reported span tree into the
// matching daemon trace. The report is fire-and-forget — no reply even
// on malformed payloads, since the client never waits on one — and
// reports for traces already evicted from the ring are dropped.
func (d *Daemon) handleTraceReport(m *wire.Msg) {
	if m.TraceID == 0 || len(m.Payload) == 0 {
		return
	}
	var root telemetry.Span
	if err := json.Unmarshal(m.Payload, &root); err != nil {
		return
	}
	d.tel.traces.Stitch(telemetry.TraceID(m.TraceID), &root)
}

// sendErrFor reports an error correlated to the failing request so the
// client can release the matching waiter. Control-plane send failures
// mean the client is gone; the connection loop observes it on the next
// Recv.
func (d *Daemon) sendErrFor(env sim.Env, conn wire.Conn, inReplyTo wire.Type, iter uint64, model, msg string) {
	d.sendErrCode(env, conn, inReplyTo, wire.ErrCodeNone, iter, model, msg)
}

// sendErrCode is sendErrFor with a machine-readable classification, so
// clients can map the failure to a typed sentinel instead of
// string-matching.
func (d *Daemon) sendErrCode(env sim.Env, conn wire.Conn, inReplyTo wire.Type, code wire.ErrCode, iter uint64, model, msg string) {
	d.stats.errors.Add(1)
	d.tel.errors.Inc()
	_ = conn.Send(env, &wire.Msg{
		Type: wire.TError, InReplyTo: inReplyTo, Code: code, Iteration: iter, Model: model, Error: msg,
	})
}

// peerAdder is implemented by fabrics that need explicit peer-address
// exchange (the TCP soft-RDMA fabric).
type peerAdder interface {
	AddPeer(name, addr string)
}

// handleRegister builds (or re-attaches) the persistent structure for a
// model and records the client's memory regions.
func (d *Daemon) handleRegister(env sim.Env, conn wire.Conn, m *wire.Msg) {
	if len(m.Tensors) == 0 {
		d.sendErrFor(env, conn, wire.TRegister, 0, m.Model, "registration packet has no tensors")
		return
	}
	owners := d.group.Owners(m.Model, d.replicas)
	if !memberOf(owners, d.nodeName) {
		// A misrouted registration means the client holds a stale table;
		// refusing it here (naming the replica set and epoch) keeps each
		// model's data on exactly its owner daemons.
		d.sendErrCode(env, conn, wire.TRegister, wire.ErrCodeMisplaced, 0, m.Model,
			fmt.Sprintf("model %q is placed on %v (placement epoch %d), not %q", m.Model, owners, d.group.Epoch(), d.nodeName))
		return
	}
	if m.FabricAddr != "" {
		if pa, ok := d.cfg.Fabric.(peerAdder); ok {
			pa.AddPeer(m.ClientNode, m.FabricAddr)
		}
	}
	metas := make([]index.TensorMeta, len(m.Tensors))
	mrs := make([]rdma.RemoteMR, len(m.Tensors))
	for i, t := range m.Tensors {
		metas[i] = index.TensorMeta{Name: t.Name, DType: index.DType(t.DType), Dims: t.Dims, Size: t.Size}
		mrs[i] = rdma.RemoteMR{Node: m.ClientNode, RKey: t.RKey, Len: t.Size}
	}
	env.Sleep(time.Duration(len(m.Tensors)) * perfmodel.IndexInsertCost)

	d.mu.Lock()
	model, err := d.admitLocked(m.Model, metas)
	d.mu.Unlock()
	if err != nil && store.IsSpaceError(err) {
		// Reclaim-then-retry: run (or join) an online repack pass, then
		// try the admission once more before surfacing anything.
		d.tel.events.Emit(telemetry.Event{
			Time: env.Now(), Kind: telemetry.EvStoreReclaim, Model: m.Model,
			Detail: fmt.Sprintf("registration hit %v; reclaiming", err),
		})
		d.runRepack(env, true)
		d.mu.Lock()
		model, err = d.admitLocked(m.Model, metas)
		d.mu.Unlock()
	}
	if err != nil {
		if store.IsSpaceError(err) {
			// Still exhausted after reclaiming: transient backpressure,
			// not a hard failure. Space comes back as tenants delete, so
			// the client backs off and re-registers, mirroring BUSY.
			d.tel.nospaceReplies.Inc()
			d.tel.events.Emit(telemetry.Event{
				Time: env.Now(), Kind: telemetry.EvStoreReclaim, Model: m.Model,
				Detail: "still exhausted after reclaim; NO_SPACE retry-after",
			})
			_ = conn.Send(env, &wire.Msg{
				Type: wire.TError, InReplyTo: wire.TRegister, Code: wire.ErrCodeNoSpace,
				Model: m.Model, Error: err.Error(), RetryAfter: 2 * time.Millisecond,
			})
			return
		}
		d.sendErrFor(env, conn, wire.TRegister, 0, m.Model, err.Error())
		return
	}
	d.mu.Lock()
	d.sessions[m.Model] = &session{clientNode: m.ClientNode, mrs: mrs, model: model}
	d.mu.Unlock()

	d.stats.registered.Add(1)
	d.tel.registered.Inc()
	if err := conn.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: m.Model}); err != nil {
		return
	}
}

// errStructMismatch distinguishes a re-registration whose tensors don't
// match the stored model from space errors on the admission path.
var errStructMismatch = errors.New("registration does not match stored model structure")

// admitLocked is the transactional admission step shared by REGISTER
// and LOAD: create the model (all-or-nothing through the engine) or
// re-attach to the stored structure, restoring any version slot the
// offline repacker reclaimed. Caller holds d.mu.
func (d *Daemon) admitLocked(name string, metas []index.TensorMeta) (*index.Model, error) {
	model, err := d.store.Lookup(name)
	if err != nil {
		// Fresh model: create ModelTable entry, MIndex, TensorData x2.
		model, err = d.eng.CreateModel(name, metas)
		if err != nil {
			return nil, err
		}
		d.modelMap.Put(name, model.InfoOff())
		return model, nil
	}
	if !metasMatch(model.Tensors, metas) {
		// Re-registration after a client restart must describe the same
		// structure, or the persistent index cannot serve it.
		return nil, errStructMismatch
	}
	// A repacked model keeps only its newest version; restore the
	// double mapping before training resumes.
	if err := d.eng.EnsureSlots(model); err != nil {
		return nil, err
	}
	return model, nil
}

func memberOf(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

func metasMatch(a, b []index.TensorMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Size != b[i].Size || a[i].DType != b[i].DType {
			return false
		}
	}
	return true
}

// enqueue routes a checkpoint/restore request into the scheduler. The
// scheduler owns admission, dedup, coalescing, and ordering under a
// single lock, so the old CAS-vs-park race window between a failed
// busy flip and the duplicate-park check no longer exists.
func (d *Daemon) enqueue(env sim.Env, conn wire.Conn, m *wire.Msg, class sched.Class) {
	d.mu.Lock()
	sess, ok := d.sessions[m.Model]
	d.mu.Unlock()
	if !ok {
		d.sendErrCode(env, conn, m.Type, wire.ErrCodeNotRegistered, m.Iteration, m.Model, "model not registered on this daemon")
		return
	}
	// A DO_CHECKPOINT retried after a reconnect (the original DONE was
	// lost with the connection) is keyed by (model, iteration): if that
	// iteration already committed, ack it from the index instead of
	// double-executing.
	if class == sched.ClassCheckpoint && d.committed(sess, m.Iteration) {
		d.tel.dedups.Inc()
		var crc uint64
		for v := 0; v < 2; v++ {
			if h := sess.model.VersionHeader(v); h.State == index.StateDone && h.Iteration == m.Iteration {
				crc = h.CRC
			}
		}
		_ = conn.Send(env, &wire.Msg{Type: wire.TCheckpointDone, Model: m.Model, Iteration: m.Iteration, CRC: crc})
		return
	}
	res := d.sched.Submit(env, &sched.Task{
		Model:      m.Model,
		Class:      class,
		Iteration:  m.Iteration,
		EnqueuedAt: env.Now(),
		TraceID:    telemetry.TraceID(m.TraceID),
		ParentSpan: m.SpanID,
		Payload:    &reqCtx{sess: sess, conn: conn, digests: m.Digests, deltaBlock: m.DeltaBlock},
	})
	switch res.Verdict {
	case sched.Deduped:
		// The identical request is queued or in flight; this connection
		// is parked on it and answered when it completes.
		d.tel.dedups.Inc()
	case sched.Rejected:
		// Backpressure, not an error: the client re-sends after the
		// hinted delay.
		_ = conn.Send(env, &wire.Msg{
			Type: wire.TBusy, InReplyTo: m.Type, Iteration: m.Iteration,
			Model: m.Model, RetryAfter: res.RetryAfter,
		})
	}
}

// committed reports whether iter is already a complete version on PMem.
func (d *Daemon) committed(sess *session, iter uint64) bool {
	for v := 0; v < 2; v++ {
		if h := sess.model.VersionHeader(v); h.State == index.StateDone && h.Iteration == iter {
			return true
		}
	}
	return false
}

// worker is one thread-pool member: it owns whole tasks, touching only
// its task's MIndex and TensorData (the paper's per-worker
// independence). doCheckpoint/doRestore release the task's lane
// (sched.Done) themselves before fanning replies out; the deferred-
// style Done here is an idempotent backstop so a missed path can never
// wedge a lane.
func (d *Daemon) worker(env sim.Env) {
	for {
		t, ok := d.sched.Next(env)
		if !ok {
			return
		}
		switch t.Class {
		case sched.ClassCheckpoint:
			d.doCheckpoint(env, t, t.Payload.(*reqCtx))
		case sched.ClassRestore:
			d.doRestore(env, t, t.Payload.(*reqCtx))
		case sched.ClassMaintenance:
			d.doMaintenance(env, t)
		}
		d.sched.Done(env, t)
	}
}

// maintCtx is the payload of a maintenance task: the pass it belongs
// to, so the last finishing model completes the pass.
type maintCtx struct {
	pass *repackPass
}

// repackPass tracks one online repack pass across its per-model
// maintenance tasks. done fires when every model's step finished and
// the engine's FinishPass ran.
type repackPass struct {
	mu        sync.Mutex
	remaining int
	models    int
	moved     int64
	err       error
	report    store.PassReport

	started time.Duration
	trace   telemetry.TraceID
	done    *sim.Signal
}

// runRepack starts an online repack pass — or joins the active one —
// and, when wait is true, blocks until it completes. One maintenance
// task per stored model is submitted to the scheduler's maintenance
// class: each task leases its model's lane (quiescing that model's
// traffic while queued checkpoints/restores keep strict priority), and
// the last one to finish trims the bump pointer and compacts the
// ModelTable.
func (d *Daemon) runRepack(env sim.Env, wait bool) *repackPass {
	d.repackMu.Lock()
	if p := d.pass; p != nil {
		d.repackMu.Unlock()
		if wait {
			p.done.Wait(env)
		}
		return p
	}
	names := d.ModelNames()
	p := &repackPass{
		remaining: len(names),
		models:    len(names),
		started:   env.Now(),
		trace:     telemetry.NewTraceID(),
		done:      sim.NewSignal(env),
	}
	d.pass = p
	d.repackMu.Unlock()
	if len(names) == 0 {
		d.finishPass(env, p)
	}
	for _, name := range names {
		res := d.sched.Submit(env, &sched.Task{
			Model:      name,
			Class:      sched.ClassMaintenance,
			EnqueuedAt: env.Now(),
			TraceID:    p.trace,
			Payload:    &maintCtx{pass: p},
		})
		if res.Verdict == sched.Rejected {
			// Only a closed scheduler rejects maintenance; count the
			// model as done so the pass still completes.
			d.passStep(env, p, 0, nil)
		}
		// Deduped cannot happen (one task per model per pass, and passes
		// never overlap), but if it ever did, doMaintenance fans pass
		// completion out to Dups as well.
	}
	if wait {
		p.done.Wait(env)
	}
	return p
}

// passStep records one model's maintenance step; the last step closes
// the pass.
func (d *Daemon) passStep(env sim.Env, p *repackPass, moved int64, err error) {
	p.mu.Lock()
	p.moved += moved
	if err != nil && p.err == nil {
		p.err = err
	}
	p.remaining--
	last := p.remaining == 0
	p.mu.Unlock()
	if last {
		d.finishPass(env, p)
	}
}

// finishPass runs the engine's end-of-pass step (bump-pointer trim +
// live ModelTable compaction), records the report, and releases
// everyone waiting on the pass.
func (d *Daemon) finishPass(env sim.Env, p *repackPass) {
	rep, err := d.eng.FinishPass(p.models, p.moved, env.Now()-p.started, p.trace)
	p.mu.Lock()
	if err != nil && p.err == nil {
		p.err = err
	}
	p.report = rep
	perr := p.err
	p.mu.Unlock()
	detail := rep.String()
	if perr != nil {
		detail = "pass error: " + perr.Error()
	}
	d.tel.events.Emit(telemetry.Event{
		Time: env.Now(), Kind: telemetry.EvStoreRepack, Trace: p.trace, Detail: detail,
	})
	d.repackMu.Lock()
	d.pass = nil
	d.repackMu.Unlock()
	p.done.Fire(env)
}

// doMaintenance executes one model's slice of an online repack pass.
// Holding the lane's running slot IS the quiesce lease: no checkpoint
// or restore for this model can dispatch until sched.Done.
func (d *Daemon) doMaintenance(env sim.Env, t *sched.Task) {
	mc := t.Payload.(*maintCtx)
	// Compact through the session's live handle (when one exists) so the
	// repoint lands in the same in-memory PAddr cache the checkpoint and
	// restore paths read; a fresh Lookup would leave the session stale.
	var cached *index.Model
	d.mu.Lock()
	if sess := d.sessions[t.Model]; sess != nil {
		cached = sess.model
	}
	d.mu.Unlock()
	moved, err := d.eng.CompactModel(t.Model, cached)
	if moved > 0 {
		// Model the copy + flush time of the relocated bytes while the
		// lease is still held.
		env.Sleep(flushCost(moved))
	}
	d.sched.Done(env, t)
	// If the model was deleted while this task waited, drop its lane.
	d.mu.Lock()
	_, alive := d.modelMap.Get(t.Model)
	d.mu.Unlock()
	if !alive {
		d.sched.Forget(t.Model)
	}
	d.passStep(env, mc.pass, moved, err)
	for _, dp := range t.Dups {
		if m2, ok := dp.(*maintCtx); ok {
			d.passStep(env, m2.pass, 0, nil)
		}
	}
}

// maybeAutoRepack kicks a background pass when the watermark trips and
// auto mode is on.
func (d *Daemon) maybeAutoRepack(env sim.Env) {
	if !d.cfg.RepackAuto || !d.eng.NeedsRepack() {
		return
	}
	d.runRepack(env, false)
}

// handleRepack runs one online repack pass to completion and answers
// with its JSON report — portusctl repack -addr.
func (d *Daemon) handleRepack(env sim.Env, conn wire.Conn, m *wire.Msg) {
	p := d.runRepack(env, true)
	p.mu.Lock()
	rep, perr := p.report, p.err
	p.mu.Unlock()
	if perr != nil {
		d.sendErrFor(env, conn, wire.TRepack, 0, "", perr.Error())
		return
	}
	payload, err := json.Marshal(rep)
	if err != nil {
		d.sendErrFor(env, conn, wire.TRepack, 0, "", err.Error())
		return
	}
	_ = conn.Send(env, &wire.Msg{Type: wire.TRepackResp, InReplyTo: wire.TRepack, Payload: payload})
}

// plan builds the chunk schedule for one version slot of a model, and
// the transfer context binding it to the client's remote regions.
func (d *Daemon) plan(sess *session, slot int) (datapath.Plan, *datapath.Context) {
	m := sess.model
	tensors := make([]datapath.TensorRange, len(m.Tensors))
	for i, tm := range m.Tensors {
		ext := m.TensorData(i, slot)
		tensors[i] = datapath.TensorRange{Name: tm.Name, PMemOff: ext.Off, Size: ext.Size}
	}
	cx := &datapath.Context{
		Fabric:    d.cfg.Fabric,
		Local:     d.cfg.RNode,
		LocalMR:   d.dataMR,
		Remote:    sess.mrs,
		HostStage: d.hostStage,
	}
	return datapath.NewPlan(tensors, d.cfg.ChunkSize), cx
}

// deltaPlan is a prepared incremental checkpoint: the dirty extents to
// pull over the fabric, the clean spans to copy forward locally in
// PMem, and the byte accounting behind the decision.
type deltaPlan struct {
	plan                         datapath.Plan
	spans                        []datapath.CopySpan
	pull, copied, skipped, total int64
}

// modelSizes collects a model's tensor sizes (the delta layout) and
// their sum.
func modelSizes(m *index.Model) ([]int64, int64) {
	sizes := make([]int64, len(m.Tensors))
	var total int64
	for i, tm := range m.Tensors {
		sizes[i] = tm.Size
		total += tm.Size
	}
	return sizes, total
}

// planDelta decides whether a checkpoint can run incrementally. It must
// run BEFORE SetActive: the decision reads both slots' version headers
// and persisted digest tables, and SetActive destroys the target
// slot's header. A nil return means run a full checkpoint; every nil
// on a request that asked for delta is counted and flight-recorded as
// a fallback.
func (d *Daemon) planDelta(env sim.Env, t *sched.Task, rc *reqCtx, slot int) *deltaPlan {
	if rc.deltaBlock <= 0 || len(rc.digests) == 0 {
		return nil // pre-delta client: full checkpoint is the contract, not a fallback
	}
	fallback := func(reason string) *deltaPlan {
		d.tel.deltaFallbacks.Inc()
		d.tel.events.Emit(telemetry.Event{
			Time: env.Now(), Kind: telemetry.EvDeltaFallback,
			Model: t.Model, Iteration: t.Iteration, Trace: t.TraceID, Detail: reason,
		})
		return nil
	}
	if !d.cfg.DeltaEnabled {
		return fallback("delta disabled on this daemon")
	}
	block := rc.deltaBlock
	if want := d.cfg.DeltaBlockBytes; want > 0 && block != want {
		return fallback(fmt.Sprintf("client block %d bytes, daemon pinned to %d", block, want))
	}
	m := rc.sess.model
	sizes, total := modelSizes(m)
	layout := delta.LayoutHash(sizes, block)
	count := delta.BlockCount(sizes, block)
	if len(rc.digests) != count {
		return fallback(fmt.Sprintf("digest vector has %d blocks, layout needs %d", len(rc.digests), count))
	}
	prevSlot, prevHdr, ok := m.LatestDone()
	if !ok {
		// First version of this model: nothing could ever delta against
		// it, so the full pull is the contract rather than a fallback.
		return nil
	}
	if prevSlot == slot {
		return fallback("previous complete version occupies the target slot")
	}
	active, ok := d.store.DeltaGet(m, prevSlot)
	if !ok || active.Iteration != prevHdr.Iteration || !active.Matches(block, layout, count) {
		return fallback("previous version has no trusted digest table")
	}
	// The target slot's table is only a skip oracle: when it is stale or
	// missing, every clean block copies forward instead of skipping —
	// correct either way, just slower.
	var target []uint64
	if h := m.VersionHeader(slot); h.State == index.StateDone {
		if tt, ok := d.store.DeltaGet(m, slot); ok && tt.Iteration == h.Iteration && tt.Matches(block, layout, count) {
			target = tt.Digests
		}
	}
	diff := delta.ThreeWay(sizes, block, rc.digests, active.Digests, target)
	if diff.PullBytes+diff.CopyBytes >= total {
		return fallback(fmt.Sprintf("delta would move %d of %d bytes; full pull is cheaper",
			diff.PullBytes+diff.CopyBytes, total))
	}
	dp := &deltaPlan{pull: diff.PullBytes, copied: diff.CopyBytes, skipped: diff.SkipBytes, total: total}
	var extents []datapath.Extent
	for _, x := range diff.Pull {
		ext := m.TensorData(x.Tensor, slot)
		extents = append(extents, datapath.Extent{
			Tensor: x.Tensor, Name: m.Tensors[x.Tensor].Name,
			TensorOff: x.TensorOff, PMemOff: ext.Off + x.TensorOff, Size: x.Size,
		})
	}
	dp.plan = datapath.NewDeltaPlan(extents, d.cfg.ChunkSize)
	for _, x := range diff.Copy {
		dst := m.TensorData(x.Tensor, slot)
		src := m.TensorData(x.Tensor, prevSlot)
		dp.spans = append(dp.spans, datapath.CopySpan{
			Name:   m.Tensors[x.Tensor].Name,
			DstOff: dst.Off + x.TensorOff, SrcOff: src.Off + x.TensorOff, Size: x.Size,
		})
	}
	return dp
}

// errInjectedCrash marks a deltaCrash-hook abort: the request dies as a
// power failure would, with nothing later persisted.
var errInjectedCrash = errors.New("injected crash")

func (d *Daemon) crashAt(stage string) bool {
	return d.deltaCrash != nil && d.deltaCrash(stage)
}

// copyForward runs the local half of an incremental checkpoint and
// folds its timing into the pull result (the copy is flush-dominated
// PMem work, so it lands in the flush stage of the Figure 13
// breakdown).
func (d *Daemon) copyForward(env sim.Env, cx *datapath.Context, dp *deltaPlan, root *telemetry.Span, res *datapath.Result) error {
	if d.crashAt("pre-copy-forward") {
		return errInjectedCrash
	}
	data := d.cfg.PMem.Data()
	cres, err := d.engine.CopyForward(env, cx, dp.spans, func(dst, src, n int64) error {
		memdev.Copy(data, dst, data, src, n)
		return nil
	}, root)
	if err != nil {
		return err
	}
	res.Flush += cres.Transfer
	if d.crashAt("post-copy-forward") {
		return errInjectedCrash
	}
	return nil
}

// putDigests persists the client's digest vector as the slot's table so
// the NEXT checkpoint can delta against this version. A failed persist
// only costs that next delta (it falls back to full); the checkpoint
// itself is already intact on media.
func (d *Daemon) putDigests(env sim.Env, t *sched.Task, rc *reqCtx, slot int) {
	m := rc.sess.model
	sizes, _ := modelSizes(m)
	if len(rc.digests) != delta.BlockCount(sizes, rc.deltaBlock) {
		return // malformed vector: never persist a table the differ would mistrust
	}
	tbl := &delta.Table{
		BlockBytes: rc.deltaBlock,
		Iteration:  t.Iteration,
		Layout:     delta.LayoutHash(sizes, rc.deltaBlock),
		Digests:    rc.digests,
	}
	if err := d.store.DeltaPut(m, slot, tbl); err != nil {
		d.tel.events.Emit(telemetry.Event{
			Time: env.Now(), Kind: telemetry.EvDeltaFallback,
			Model: m.Name, Iteration: t.Iteration, Trace: t.TraceID,
			Detail: "digest table persist failed (next delta runs full): " + err.Error(),
		})
	}
}

// doCheckpoint pulls the model from GPU memory into the target version
// slot, building the span tree of the request lifecycle as it goes:
// enqueue-wait, the engine's pull/flush stages, and the version-flag
// commit. The engine returns only once every chunk is flushed, so the
// done flag never commits over unpersisted data regardless of pipeline
// depth. A request carrying a trusted digest vector runs incrementally:
// only the dirty extents cross the fabric, the clean blocks copy
// forward from the previous version's slot inside PMem (flushed under
// the same discipline), and blocks the target slot already holds are
// skipped outright.
func (d *Daemon) doCheckpoint(env sim.Env, t *sched.Task, rc *reqCtx) {
	m := rc.sess.model
	slot := m.TargetSlot()
	dp := d.planDelta(env, t, rc, slot)
	m.SetActive(slot, t.Iteration)

	tr := telemetry.NewTrace("checkpoint", m.Name, t.Iteration, t.EnqueuedAt)
	tr.ID = t.TraceID
	tr.ParentSpan = t.ParentSpan
	t0 := env.Now()
	wait := tr.Root.Child("enqueue-wait", t.EnqueuedAt)
	wait.EndAt(t0)

	plan, cx := d.plan(rc.sess, slot)
	if dp != nil {
		plan = dp.plan
	}
	cx.Trace = t.TraceID
	lease := d.lanePool.Acquire()
	cx.Lanes = lease.Lanes()
	res, err := d.engine.Pull(env, cx, plan, tr.Root)
	if err == nil && dp != nil {
		err = d.copyForward(env, cx, dp, tr.Root, &res)
	}
	lease.Release()
	if err != nil {
		tr.Err = err.Error()
		tr.Finish(env.Now())
		d.tel.traces.Add(tr)
		// Free the lane before touching the waiter lists: once the task
		// leaves the running set, Dups/Coalesced are stable.
		d.sched.Done(env, t)
		d.sendErrFor(env, rc.conn, wire.TDoCheckpoint, t.Iteration, m.Name, tr.Err)
		for _, dp := range t.Dups {
			d.sendErrFor(env, dp.(*reqCtx).conn, wire.TDoCheckpoint, t.Iteration, m.Name, tr.Err)
		}
		for _, st := range t.Coalesced {
			d.sendErrFor(env, st.Payload.(*reqCtx).conn, wire.TDoCheckpoint, st.Iteration, m.Name, tr.Err)
		}
		return
	}
	commit := tr.Root.Child("commit", env.Now())
	// Persist the client's digest vector for this slot — before the DONE
	// flag, so a crash in between leaves a table whose iteration cannot
	// match the slot header (it is distrusted, never wrong). Full
	// checkpoints persist it too: that is what bootstraps the first
	// delta.
	if d.cfg.DeltaEnabled && rc.deltaBlock > 0 && len(rc.digests) > 0 {
		d.putDigests(env, t, rc, slot)
	}
	if d.crashAt("post-table") {
		commit.EndAt(env.Now())
		tr.Err = errInjectedCrash.Error()
		tr.Finish(env.Now())
		d.tel.traces.Add(tr)
		d.sched.Done(env, t)
		d.sendErrFor(env, rc.conn, wire.TDoCheckpoint, t.Iteration, m.Name, tr.Err)
		return
	}
	// Fingerprint the slot's freshly-flushed content and persist the
	// stamp with the DONE flag: every replica of this pull computes the
	// same CRC, so a torn or corrupted copy is detectable at restore.
	crc := d.contentCRC(m, slot)
	m.SetDoneCRC(slot, t.Iteration, time.Unix(0, int64(env.Now())), crc)
	commit.EndAt(env.Now())
	if dp != nil {
		d.stats.deltaDirty.Store(math.Float64bits(float64(dp.pull) / float64(dp.total)))
		d.tel.deltaSaved.Add(dp.total - dp.pull)
		d.tel.events.Emit(telemetry.Event{
			Time: env.Now(), Kind: telemetry.EvDeltaPlan,
			Model: m.Name, Iteration: t.Iteration, Trace: t.TraceID,
			Detail: fmt.Sprintf("pull %d copy %d skip %d of %d bytes", dp.pull, dp.copied, dp.skipped, dp.total),
		})
	}

	d.stats.pullNanos.Add(int64(res.Transfer))
	d.stats.flushNanos.Add(int64(res.Flush))
	d.stats.checkpoints.Add(1)
	d.stats.bytesPulled.Add(res.Bytes)
	tr.Bytes = res.Bytes
	tr.Finish(env.Now())
	d.tel.checkpoints.Inc()
	d.tel.bytesPulled.Add(res.Bytes)
	d.tel.ckptLatency.ObserveDurationTraced(tr.Duration, tr.ID)
	d.tel.enqueueWait.ObserveDurationTraced(wait.Dur(), tr.ID)
	d.tel.pullStage.ObserveDurationTraced(res.Transfer, tr.ID)
	d.tel.flushStage.ObserveDurationTraced(res.Flush, tr.ID)
	d.tel.traces.Add(tr)
	d.sched.Done(env, t)
	// The original connection may have died mid-pull; duplicate waiters
	// from the client's reconnect get the same DONE, so a committed
	// version is always acknowledged on whichever connection survives.
	// Coalesced waiters asked for an older iteration that this newer
	// commit supersedes; each is acknowledged with its own iteration.
	done := &wire.Msg{Type: wire.TCheckpointDone, Model: m.Name, Iteration: t.Iteration, Slot: slot, CRC: crc}
	_ = rc.conn.Send(env, done)
	for _, dp := range t.Dups {
		_ = dp.(*reqCtx).conn.Send(env, done)
	}
	for _, st := range t.Coalesced {
		_ = st.Payload.(*reqCtx).conn.Send(env, &wire.Msg{
			Type: wire.TCheckpointDone, Model: m.Name, Iteration: st.Iteration, Slot: slot,
		})
	}
}

// contentCRC fingerprints one version slot's tensor extents: the hash
// of the actual PMem bytes in materialized mode, or of the extents'
// content fingerprints in virtual mode (Fingerprint, not StampOf: a
// delta-written slot holds pulled and copied-forward fragments side by
// side, which StampOf cannot summarize; on an unfragmented extent the
// two are identical, so pre-delta CRCs still verify). Replicas that
// assembled the same content compute the same value, so the stamp
// identifies the copy's content, not its location or how it got there.
func (d *Daemon) contentCRC(m *index.Model, slot int) uint64 {
	data := d.cfg.PMem.Data()
	exts := make([]alloc.Extent, len(m.Tensors))
	var total int64
	for i := range exts {
		exts[i] = m.TensorData(i, slot)
		total += exts[i].Size
	}
	if !data.Materialized() {
		h := crc64.New(crcTable)
		var b [8]byte
		for _, ext := range exts {
			binary.LittleEndian.PutUint64(b[:], data.Fingerprint(ext.Off, ext.Size))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	return crcExtents(data, exts, memdev.Parts(total, crcMinPart))
}

// crcMinPart is the smallest share of a slot's bytes hashed on a core
// of its own; below it the goroutine and combine overhead outweigh the
// speedup, so small models hash serially.
const crcMinPart = 1 << 20

// crcExtents is the CRC64 (ECMA) of the extents' bytes concatenated in
// order, hashed in place. Each part of bounds (offsets into the
// concatenation) is hashed concurrently and the part CRCs are folded
// with crc64Combine, so the result equals the serial checksum for any
// split.
func crcExtents(dev *memdev.Device, exts []alloc.Extent, bounds []int64) uint64 {
	crcs := make([]uint64, len(bounds)-1)
	memdev.RunParts(bounds, func(i int, lo, hi int64) {
		var crc uint64
		var base int64 // offset of ext within the concatenation
		for _, ext := range exts {
			a, b := max(lo, base), min(hi, base+ext.Size)
			if a < b {
				dev.View(ext.Off+a-base, b-a, func(p []byte) { crc = crc64.Update(crc, crcTable, p) })
			}
			base += ext.Size
		}
		crcs[i] = crc
	})
	crc := crcs[0]
	for i := 1; i < len(crcs); i++ {
		crc = crc64Combine(crc, crcs[i], bounds[i+1]-bounds[i])
	}
	return crc
}

// crc64Combine returns the CRC64 (ECMA) of A||B given crcA, crcB and
// len(B), without touching the bytes: zlib's crc32_combine method
// (≥ 1.2.12) with the 64-bit polynomial. Appending len(B) zero bytes to
// A multiplies its CRC register by x^(8·len(B)) mod P; that power is
// the product of the table entries x^(2^k) for the set bits of
// 8·len(B), and B's own CRC is then XORed in (the pre- and
// post-inversion cancel, as in zlib).
func crc64Combine(crcA, crcB uint64, lenB int64) uint64 {
	if lenB <= 0 {
		return crcA
	}
	p := uint64(1) << 63 // x^0
	for k := 3; lenB != 0; k, lenB = k+1, lenB>>1 {
		if lenB&1 != 0 {
			p = multModP(x2nTable[k], p)
		}
	}
	return multModP(p, crcA) ^ crcB
}

// x2nTable[k] is x^(2^k) mod P in the reflected bit order, for every
// k a positive int64 byte count (times 8) can reach.
var x2nTable = func() (t [3 + 63]uint64) {
	t[0] = 1 << 62 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = multModP(t[k-1], t[k-1])
	}
	return t
}()

// multModP returns a·b mod P for polynomials in the reflected bit order
// (bit 63 is x^0). a must be nonzero.
func multModP(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func flushCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
}

// doRestore writes a done version into the client's GPU memory: the
// newest one by default, or — when the request names an iteration — the
// exact slot holding it, which is how a striped group restore pins
// every shard to the manifest's group-committed iteration.
func (d *Daemon) doRestore(env sim.Env, t *sched.Task, rc *reqCtx) {
	m := rc.sess.model
	fail := func(code wire.ErrCode, iter uint64, msg string) {
		d.sched.Done(env, t)
		d.sendErrCode(env, rc.conn, wire.TRestore, code, iter, m.Name, msg)
		for _, dp := range t.Dups {
			d.sendErrCode(env, dp.(*reqCtx).conn, wire.TRestore, code, iter, m.Name, msg)
		}
	}
	var (
		slot int
		v    index.Version
		ok   bool
	)
	if t.Iteration != 0 {
		for s := 0; s < 2; s++ {
			if h := m.VersionHeader(s); h.State == index.StateDone && h.Iteration == t.Iteration {
				slot, v, ok = s, h, true
				break
			}
		}
		if !ok {
			fail(wire.ErrCodeNoCheckpoint, t.Iteration, fmt.Sprintf("iteration %d has no complete version on PMem", t.Iteration))
			return
		}
	} else if slot, v, ok = m.LatestDone(); !ok {
		fail(wire.ErrCodeNoCheckpoint, 0, "no complete checkpoint version on PMem")
		return
	}
	tr := telemetry.NewTrace("restore", m.Name, v.Iteration, t.EnqueuedAt)
	tr.ID = t.TraceID
	tr.ParentSpan = t.ParentSpan
	t0 := env.Now()
	wait := tr.Root.Child("enqueue-wait", t.EnqueuedAt)
	wait.EndAt(t0)
	// Integrity gate: re-fingerprint the stored copy against the stamp
	// persisted with its DONE flag before any byte reaches GPU memory. A
	// mismatch means this copy is torn or corrupted — the client fails
	// over to another replica. The gate is work, not queueing: it gets
	// its own span, outside enqueue-wait.
	verify := tr.Root.Child("verify", t0)
	if v.CRC != 0 {
		if got := d.contentCRC(m, slot); got != v.CRC {
			verify.EndAt(env.Now())
			d.tel.crcFailures.Inc()
			msg := fmt.Sprintf("iteration %d failed integrity check (stored CRC %016x, computed %016x)", v.Iteration, v.CRC, got)
			tr.Err = msg
			tr.Finish(env.Now())
			d.tel.traces.Add(tr)
			fail(wire.ErrCodeCorrupt, v.Iteration, msg)
			return
		}
	}
	verify.EndAt(env.Now())
	plan, cx := d.plan(rc.sess, slot)
	cx.Trace = t.TraceID
	lease := d.lanePool.Acquire()
	cx.Lanes = lease.Lanes()
	res, err := d.engine.Push(env, cx, plan, tr.Root)
	lease.Release()
	if err != nil {
		tr.Err = err.Error()
		tr.Finish(env.Now())
		d.tel.traces.Add(tr)
		fail(wire.ErrCodeNone, v.Iteration, tr.Err)
		return
	}
	d.stats.pushNanos.Add(int64(res.Transfer))
	d.stats.restores.Add(1)
	d.stats.bytesPushed.Add(res.Bytes)
	tr.Bytes = res.Bytes
	tr.Finish(env.Now())
	d.tel.restores.Inc()
	d.tel.bytesPushed.Add(res.Bytes)
	d.tel.restoreLatency.ObserveDurationTraced(tr.Duration, tr.ID)
	d.tel.pushStage.ObserveDurationTraced(res.Transfer, tr.ID)
	d.tel.enqueueWait.ObserveDurationTraced(wait.Dur(), tr.ID)
	d.tel.traces.Add(tr)
	d.sched.Done(env, t)
	done := &wire.Msg{Type: wire.TRestoreDone, Model: m.Name, Iteration: v.Iteration, Slot: slot}
	_ = rc.conn.Send(env, done)
	for _, dp := range t.Dups {
		_ = dp.(*reqCtx).conn.Send(env, done)
	}
}

// handleList reports all stored models, stamped with this node's
// identity and each model's placement owner so portusctl (and the
// client router's manifest rebuild) can see shard ownership.
func (d *Daemon) handleList(env sim.Env, conn wire.Conn) {
	models, err := d.store.Models()
	if err != nil {
		d.sendErrFor(env, conn, wire.TList, 0, "", err.Error())
		return
	}
	d.tel.adminList.Inc()
	d.tel.events.Emit(telemetry.Event{
		Time: env.Now(), Kind: telemetry.EvAdminList,
		Detail: fmt.Sprintf("%d models", len(models)),
	})
	resp := &wire.Msg{Type: wire.TListResp}
	for _, m := range models {
		info := wire.ModelInfo{
			Name:    m.Name,
			Tensors: len(m.Tensors),
			Bytes:   m.TotalSize(),
			Slot0:   index.StateName(m.VersionHeader(0).State),
			Slot1:   index.StateName(m.VersionHeader(1).State),
			Node:    d.nodeName,
			Owner:   d.group.Owner(m.Name),
		}
		for s, dst := range []*uint64{&info.Slot0Iter, &info.Slot1Iter} {
			if h := m.VersionHeader(s); h.State == index.StateDone {
				*dst = h.Iteration
				if s == 0 {
					info.Slot0CRC = h.CRC
				} else {
					info.Slot1CRC = h.CRC
				}
			}
		}
		if _, v, ok := m.LatestDone(); ok {
			info.HasDone = true
			info.LatestIter = v.Iteration
		}
		resp.Models = append(resp.Models, info)
	}
	if err := conn.Send(env, resp); err != nil {
		return
	}
}

// handlePlacement answers with the group's placement table, letting a
// client configured with any single member discover the whole tier.
func (d *Daemon) handlePlacement(env sim.Env, conn wire.Conn) {
	resp := &wire.Msg{Type: wire.TPlacementResp, Epoch: d.group.Epoch(), Replicas: d.replicas}
	for _, n := range d.group.Nodes() {
		resp.Placement = append(resp.Placement, wire.PlacementEntry{
			Node: n.Name, CtrlAddr: n.CtrlAddr, FabricAddr: n.FabricAddr, Weight: n.Weight,
		})
	}
	_ = conn.Send(env, resp)
}

// handleDump archives a model's newest complete version as a
// torch.save-style container and ships it over the control plane — the
// one place Portus ever serializes (§VI: "Portus will perform
// serialization only upon an archive of a checkpoint"), and it happens
// on the daemon, off the training path.
func (d *Daemon) handleDump(env sim.Env, conn wire.Conn, m *wire.Msg) {
	model, err := d.store.Lookup(m.Model)
	if err != nil {
		d.sendErrFor(env, conn, wire.TDump, 0, m.Model, err.Error())
		return
	}
	var (
		slot int
		v    index.Version
		ok   bool
	)
	if m.Iteration != 0 {
		// Pinned dump: anti-entropy re-replication archives the exact
		// group-committed iteration, not whatever is newest here.
		for s := 0; s < 2; s++ {
			if h := model.VersionHeader(s); h.State == index.StateDone && h.Iteration == m.Iteration {
				slot, v, ok = s, h, true
				break
			}
		}
		if !ok {
			d.sendErrCode(env, conn, wire.TDump, wire.ErrCodeNoCheckpoint, m.Iteration, m.Model,
				fmt.Sprintf("iteration %d has no complete version to archive", m.Iteration))
			return
		}
	} else if slot, v, ok = model.LatestDone(); !ok {
		d.sendErrCode(env, conn, wire.TDump, wire.ErrCodeNoCheckpoint, 0, m.Model, "no complete checkpoint version to archive")
		return
	}
	d.tel.adminDump.Inc()
	d.tel.events.Emit(telemetry.Event{
		Time: env.Now(), Kind: telemetry.EvAdminDump,
		Model: m.Model, Iteration: v.Iteration,
	})
	ckpt := &serialize.Checkpoint{Model: model.Name, Iteration: v.Iteration}
	for i, tm := range model.Tensors {
		ext := model.TensorData(i, slot)
		blob := serialize.Blob{Meta: tm}
		if d.cfg.PMem.Materialized() {
			blob.Data = d.cfg.PMem.Data().Bytes(ext.Off, ext.Size)
		} else {
			blob.Virtual = true
			blob.Stamp = d.cfg.PMem.Data().StampOf(ext.Off, ext.Size)
		}
		ckpt.Tensors = append(ckpt.Tensors, blob)
	}
	// The archive pass pays the serialization cost Portus keeps off the
	// checkpoint path.
	env.Sleep(time.Duration(len(ckpt.Tensors)) * perfmodel.SerializePerTensor)
	env.Sleep(sim.TransferTime(ckpt.ModeledSize(), perfmodel.SerializeBW, 0, 0))
	var buf bytes.Buffer
	if err := serialize.Encode(&buf, ckpt); err != nil {
		d.sendErrFor(env, conn, wire.TDump, 0, m.Model, err.Error())
		return
	}
	if err := conn.Send(env, &wire.Msg{
		Type: wire.TDumpResp, Model: m.Model, Iteration: v.Iteration, Payload: buf.Bytes(), CRC: v.CRC,
	}); err != nil {
		return
	}
}

// handleLoad installs a serialized checkpoint container (the DUMP_RESP
// payload format) into PMem as a DONE version — the anti-entropy path
// that rebuilds a replacement replica from a healthy peer's archived
// copy, without the source GPU in the loop. The install is verified
// against the shipped CRC before its DONE flag commits, and is
// idempotent for an already-present iteration.
func (d *Daemon) handleLoad(env sim.Env, conn wire.Conn, m *wire.Msg) {
	ckpt, err := serialize.Decode(bytes.NewReader(m.Payload))
	if err != nil {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, m.Model, fmt.Sprintf("decoding container: %v", err))
		return
	}
	if m.Model != "" && ckpt.Model != m.Model {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, m.Model,
			fmt.Sprintf("container holds model %q, not %q", ckpt.Model, m.Model))
		return
	}
	if ckpt.Iteration == 0 || len(ckpt.Tensors) == 0 {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, ckpt.Model, "container has no committed iteration or tensors")
		return
	}
	owners := d.group.Owners(ckpt.Model, d.replicas)
	if !memberOf(owners, d.nodeName) {
		d.sendErrCode(env, conn, wire.TLoad, wire.ErrCodeMisplaced, ckpt.Iteration, ckpt.Model,
			fmt.Sprintf("model %q is placed on %v (placement epoch %d), not %q", ckpt.Model, owners, d.group.Epoch(), d.nodeName))
		return
	}
	metas := make([]index.TensorMeta, len(ckpt.Tensors))
	for i, b := range ckpt.Tensors {
		metas[i] = b.Meta
	}
	d.mu.Lock()
	model, err := d.admitLocked(ckpt.Model, metas)
	d.mu.Unlock()
	if err != nil {
		msg := err.Error()
		if errors.Is(err, errStructMismatch) {
			msg = "container does not match stored model structure"
		}
		d.sendErrFor(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model, msg)
		return
	}
	for s := 0; s < 2; s++ {
		if h := model.VersionHeader(s); h.State == index.StateDone && h.Iteration == ckpt.Iteration {
			_ = conn.Send(env, &wire.Msg{Type: wire.TLoadOK, Model: ckpt.Model, Iteration: ckpt.Iteration, CRC: h.CRC})
			return
		}
	}
	slot := model.TargetSlot()
	model.SetActive(slot, ckpt.Iteration)
	var wrote int64
	for i, blob := range ckpt.Tensors {
		ext := model.TensorData(i, slot)
		if blob.Virtual {
			d.cfg.PMem.Data().WriteStamp(ext.Off, ext.Size, blob.Stamp)
		} else {
			if int64(len(blob.Data)) != ext.Size {
				d.sendErrFor(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model,
					fmt.Sprintf("tensor %q payload is %d bytes, slot holds %d", blob.Meta.Name, len(blob.Data), ext.Size))
				return
			}
			d.cfg.PMem.Data().Write(ext.Off, blob.Data)
		}
		if err := d.flush(ext.Off, ext.Size); err != nil {
			d.sendErrFor(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model, fmt.Sprintf("flushing tensor %q: %v", blob.Meta.Name, err))
			return
		}
		wrote += ext.Size
	}
	// Pay the deserialization cost (the inverse of the archive pass) and
	// the PMem write bandwidth for the installed bytes.
	env.Sleep(time.Duration(len(ckpt.Tensors)) * perfmodel.SerializePerTensor)
	env.Sleep(sim.TransferTime(wrote, perfmodel.SerializeBW, 0, 0))
	crc := d.contentCRC(model, slot)
	if m.CRC != 0 && crc != m.CRC {
		// The copy does not match the source's fingerprint: leave the
		// slot ACTIVE (never restorable) rather than commit a bad DONE.
		d.tel.crcFailures.Inc()
		d.sendErrCode(env, conn, wire.TLoad, wire.ErrCodeCorrupt, ckpt.Iteration, ckpt.Model,
			fmt.Sprintf("installed copy failed integrity check (source CRC %016x, computed %016x)", m.CRC, crc))
		return
	}
	model.SetDoneCRC(slot, ckpt.Iteration, time.Unix(0, int64(env.Now())), crc)
	d.tel.adminLoad.Inc()
	d.tel.events.Emit(telemetry.Event{
		Time: env.Now(), Kind: telemetry.EvAdminLoad, Model: ckpt.Model, Iteration: ckpt.Iteration,
	})
	_ = conn.Send(env, &wire.Msg{Type: wire.TLoadOK, Model: ckpt.Model, Iteration: ckpt.Iteration, CRC: crc})
}

// handleDelete removes a finished model and frees its PMem. The store
// delete runs first: if it fails, the in-memory maps are untouched, so
// the model stays visible and servable instead of lingering on PMem as
// an orphan the daemon no longer knows about.
func (d *Daemon) handleDelete(env sim.Env, conn wire.Conn, m *wire.Msg) {
	// A maintenance lease alone doesn't block deletion: doMaintenance
	// forgets the lane afterward, and the engine's CompactModel treats a
	// vanished model as a no-op.
	if !d.sched.IdleTenant(m.Model) {
		d.sendErrFor(env, conn, wire.TDelete, 0, m.Model, "model has an operation in flight")
		return
	}
	d.mu.Lock()
	err := d.eng.DeleteModel(m.Model)
	if err == nil {
		delete(d.sessions, m.Model)
		d.modelMap.Delete(m.Model)
	}
	d.mu.Unlock()
	if err != nil {
		d.sendErrFor(env, conn, wire.TDelete, 0, m.Model, err.Error())
		return
	}
	d.sched.Forget(m.Model)
	d.tel.adminDelete.Inc()
	d.tel.events.Emit(telemetry.Event{
		Time: env.Now(), Kind: telemetry.EvAdminDelete, Model: m.Model,
	})
	if err := conn.Send(env, &wire.Msg{Type: wire.TDeleteOK, Model: m.Model}); err != nil {
		return
	}
	// Deletion turns live bytes into garbage; reclaim in the background
	// once the watermark trips.
	d.maybeAutoRepack(env)
}
