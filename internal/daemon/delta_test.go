package daemon_test

import (
	"hash/fnv"
	"strings"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

// deltaBlock is small relative to the test model (~371 KiB over 28
// tensors) so sparse updates genuinely leave most blocks clean.
const deltaBlock = int64(4 << 10)

// deltaRig wires a delta-enabled daemon and a digest-computing client
// around one small model, returning the PMem device for crash
// inspection.
func deltaRig(t *testing.T, env sim.Env, dmut func(*daemon.Config)) (*daemon.Daemon, *gpu.PlacedModel, *client.Client, *pmem.Device) {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1,
		GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.Config{
		PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric,
		DeltaEnabled: true,
	}
	if dmut != nil {
		dmut(&cfg)
	}
	d, err := daemon.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

	placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.RegisterOpts(env, conn, cl.Compute[0].RNode, placed,
		client.Options{DeltaBlockBytes: deltaBlock})
	if err != nil {
		t.Fatal(err)
	}
	return d, placed, c, cl.Storage[0].PMem
}

func fallbacks(d *daemon.Daemon) int64 {
	return d.Telemetry().Counter("portus_delta_full_fallbacks_total", "").Value()
}

// TestDeltaCheckpointReducesFabricBytes is the incremental path end to
// end. The first checkpoint bootstraps the digest table (full, not a
// fallback); the second still runs full because the target slot has no
// skip oracle yet (counted as a fallback); from the third on, sparse
// updates pull only the dirty blocks. Every version restores
// byte-identical, and a dense update falls back to full.
func TestDeltaCheckpointReducesFabricBytes(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, nil)
		total := placed.Spec.TotalSize()

		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != total {
			t.Fatalf("bootstrap pulled %d bytes, want full %d", got, total)
		}
		if n := fallbacks(d); n != 0 {
			t.Fatalf("bootstrap counted %d fallbacks", n)
		}

		// Second checkpoint: the previous version's table is trusted, but
		// with no target-slot table nothing can skip, so pull+copy would
		// cost a full pass — fallback, by the byte-accounting rule.
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != 2*total {
			t.Fatalf("warmup pulled %d bytes, want 2×%d", got, total)
		}
		if n := fallbacks(d); n != 1 {
			t.Fatalf("warmup counted %d fallbacks, want 1", n)
		}

		// Third checkpoint: both slots now carry trusted tables; only the
		// blocks dirtied since the previous version cross the fabric.
		placed.ApplySparseUpdate(3, deltaBlock, 0.05)
		want3 := placed.BlockDigests(deltaBlock)
		if err := c.CheckpointSync(env, 3); err != nil {
			t.Fatal(err)
		}
		pulled3 := d.Stats().BytesPulled - 2*total
		if pulled3 <= 0 || pulled3 >= total/2 {
			t.Fatalf("delta checkpoint pulled %d of %d bytes", pulled3, total)
		}
		if n := fallbacks(d); n != 1 {
			t.Fatalf("delta checkpoint counted %d fallbacks, want 1", n)
		}

		// The delta-assembled slot restores byte-identical.
		placed.ApplyUpdate(9)
		iter, err := c.Restore(env)
		if err != nil || iter != 3 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want3); bad != -1 {
			t.Fatalf("block %d wrong after delta restore", bad)
		}

		// A dense update rewrites every block: pull alone would cost a
		// full pass, so the daemon falls back — counted and still correct.
		placed.ApplyUpdate(4)
		if err := c.CheckpointSync(env, 4); err != nil {
			t.Fatal(err)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("dense checkpoint counted %d fallbacks, want 2", n)
		}
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 4 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyIteration(4); bad != -1 {
			t.Fatalf("tensor %d wrong after fallback restore", bad)
		}
	})
	eng.Run()
}

// TestDeltaUpgradeFromFNVDigests: digest tables persisted before the
// content hash became XXH64 hold FNV-1a values. They still look trusted
// (same iteration, block size and layout), but no incoming digest
// equals them, so the cadence restarts as for a fresh model: a full
// fallback, then the arming checkpoint (full again: the target slot's
// old table skips nothing), then true deltas. Nothing is ever skipped
// on a stale match and every version restores byte-identical.
func TestDeltaUpgradeFromFNVDigests(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, pm := deltaRig(t, env, nil)
		total := placed.Spec.TotalSize()
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}

		// Rewrite both slots' tables as the old hash left them: FNV-1a
		// of each block of the slot's PMem bytes.
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			tbl, ok := d.Store().DeltaGet(m, slot)
			if !ok {
				t.Fatalf("slot %d has no digest table", slot)
			}
			tbl.Digests = tbl.Digests[:0]
			for i := range m.Tensors {
				ext := m.TensorData(i, slot)
				for off := int64(0); off < ext.Size; off += deltaBlock {
					h := fnv.New64a()
					h.Write(pm.Data().Bytes(ext.Off+off, min(deltaBlock, ext.Size-off)))
					tbl.Digests = append(tbl.Digests, h.Sum64())
				}
			}
			if err := d.Store().DeltaPut(m, slot, tbl); err != nil {
				t.Fatal(err)
			}
		}

		saved := d.Telemetry().Counter("portus_delta_bytes_saved_total", "")
		for i, want := range []struct {
			pulled    int64
			fallbacks int64
		}{
			{total, 1}, // active table is FNV: every block differs
			{total, 1}, // arming: target table is FNV, nothing skips
			{-1, 0},    // true delta
		} {
			iter := uint64(3 + i)
			pulled0, fb0, saved0 := d.Stats().BytesPulled, fallbacks(d), saved.Value()
			placed.ApplySparseUpdate(iter, deltaBlock, 0.05)
			digests := placed.BlockDigests(deltaBlock)
			if err := c.CheckpointSync(env, iter); err != nil {
				t.Fatalf("checkpoint %d: %v", iter, err)
			}
			pulled := d.Stats().BytesPulled - pulled0
			if fb := fallbacks(d) - fb0; fb != want.fallbacks {
				t.Fatalf("checkpoint %d counted %d fallbacks, want %d", iter, fb, want.fallbacks)
			}
			if want.pulled >= 0 {
				if pulled != want.pulled {
					t.Fatalf("checkpoint %d pulled %d bytes, want %d", iter, pulled, want.pulled)
				}
				if s := saved.Value() - saved0; s != 0 {
					t.Fatalf("checkpoint %d saved %d bytes against FNV tables", iter, s)
				}
			} else if pulled <= 0 || pulled >= total/2 {
				t.Fatalf("delta checkpoint %d pulled %d of %d bytes", iter, pulled, total)
			}
			placed.ApplyUpdate(9)
			if got, err := c.Restore(env); err != nil || got != iter {
				t.Fatalf("restore = %d, %v; want %d", got, err, iter)
			}
			if bad := placed.VerifyDigests(deltaBlock, digests); bad != -1 {
				t.Fatalf("block %d wrong after restoring checkpoint %d", bad, iter)
			}
		}
	})
	eng.Run()
}

// TestDeltaDisabledDaemonFallsBack: a digest-carrying client against a
// daemon with delta off runs full checkpoints, counted as fallbacks,
// with correctness untouched.
func TestDeltaDisabledDaemonFallsBack(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { cfg.DeltaEnabled = false })
		total := placed.Spec.TotalSize()
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		want2 := placed.BlockDigests(deltaBlock)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != 2*total {
			t.Fatalf("pulled %d bytes with delta off, want 2×%d", got, total)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("counted %d fallbacks, want 2", n)
		}
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 2 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want2); bad != -1 {
			t.Fatalf("block %d wrong", bad)
		}
	})
	eng.Run()
}

// TestDeltaBlockPinRejectsMismatch: a daemon pinned to one block size
// treats a client computing another as a fallback to full.
func TestDeltaBlockPinRejectsMismatch(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { cfg.DeltaBlockBytes = 64 << 10 })
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got, total := d.Stats().BytesPulled, 2*placed.Spec.TotalSize(); got != total {
			t.Fatalf("pulled %d bytes under block mismatch, want %d", got, total)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("counted %d fallbacks, want 2", n)
		}
	})
	eng.Run()
}

// TestDeltaCrashBoundaries cuts the power at each crash boundary of an
// in-flight delta checkpoint and verifies the atomicity contract: the
// interrupted iteration never commits, the previous version stays
// restorable (restore verifies its stored CRC, so success means not
// torn), and the durable state a reopen observes is either cleanly old
// or cleanly distrusted.
func TestDeltaCrashBoundaries(t *testing.T) {
	for _, stage := range []string{"pre-copy-forward", "post-copy-forward", "post-table"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				d, placed, c, pm := deltaRig(t, env, nil)
				// Two warmups so iteration 3 runs genuinely incrementally
				// (both slots carry trusted digest tables).
				placed.ApplyUpdate(1)
				if err := c.CheckpointSync(env, 1); err != nil {
					t.Fatal(err)
				}
				placed.ApplySparseUpdate(2, deltaBlock, 0.05)
				want2 := placed.BlockDigests(deltaBlock)
				if err := c.CheckpointSync(env, 2); err != nil {
					t.Fatal(err)
				}

				placed.ApplySparseUpdate(3, deltaBlock, 0.05)
				fired := false
				d.SetDeltaCrash(func(s string) bool {
					if s != stage {
						return false
					}
					fired = true
					pm.Crash()
					return true
				})
				err := c.CheckpointSync(env, 3)
				if !fired {
					t.Fatalf("stage %s never reached", stage)
				}
				if err == nil || !strings.Contains(err.Error(), "injected crash") {
					t.Fatalf("checkpoint survived the crash: %v", err)
				}
				d.SetDeltaCrash(nil)

				// Durable state: reopen the namespace as recovery would and
				// check nothing of iteration 3 committed.
				s2, err := index.Open(pm)
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				m2, err := s2.Lookup("m")
				if err != nil {
					t.Fatal(err)
				}
				slot, hdr, ok := m2.LatestDone()
				if !ok || hdr.Iteration != 2 {
					t.Fatalf("surviving version = %+v (ok=%v), want iteration 2", hdr, ok)
				}
				// A digest table the crash left on the target slot (persisted
				// just before the DONE flag at "post-table") must be
				// distrusted: its iteration cannot match any DONE header.
				if tbl, ok := s2.DeltaGet(m2, 1-slot); ok && tbl.Iteration == hdr.Iteration {
					t.Fatalf("crashed slot's table claims the surviving iteration %d", tbl.Iteration)
				}

				// The surviving version restores intact through the daemon.
				placed.ApplyUpdate(9)
				iter, err := c.Restore(env)
				if err != nil || iter != 2 {
					t.Fatalf("restore after crash = %d, %v", iter, err)
				}
				if bad := placed.VerifyDigests(deltaBlock, want2); bad != -1 {
					t.Fatalf("block %d wrong after crash restore", bad)
				}

				// And the system recovers: the next checkpoint commits and
				// restores normally.
				placed.ApplySparseUpdate(4, deltaBlock, 0.05)
				want4 := placed.BlockDigests(deltaBlock)
				if err := c.CheckpointSync(env, 4); err != nil {
					t.Fatalf("post-crash checkpoint: %v", err)
				}
				placed.ApplyUpdate(9)
				if iter, err := c.Restore(env); err != nil || iter != 4 {
					t.Fatalf("post-crash restore = %d, %v", iter, err)
				}
				if bad := placed.VerifyDigests(deltaBlock, want4); bad != -1 {
					t.Fatalf("block %d wrong after recovery", bad)
				}
			})
			eng.Run()
		})
	}
}
