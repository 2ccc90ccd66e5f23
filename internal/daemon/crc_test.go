package daemon_test

import (
	"hash/crc64"
	"runtime"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

// TestSlotCRCGolden pins the slot CRC to the on-media format: on a
// materialized model, the CRC stamped on CHECKPOINT_DONE and reported
// by LIST must be the plain ECMA CRC64 of the slot's tensor bytes
// concatenated in registration order, however the daemon spreads the
// hashing over cores. The tensor sizes are odd so part boundaries land
// inside extents as well as on them, and GOMAXPROCS is raised so the
// split path runs even on a small machine.
func TestSlotCRCGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	spec := model.Spec{Name: "golden", IterTime: time.Millisecond}
	for i, size := range []int64{3<<20 + 7, 1, 2<<20 + 3, 513, 1<<20 + 1, 4099} {
		spec.Tensors = append(spec.Tensors, index.TensorMeta{
			Name: "t" + string(rune('a'+i)), DType: index.F32, Dims: []int64{size}, Size: size,
		})
	}
	table := crc64.MakeTable(crc64.ECMA)
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 16 << 20, PMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(env, daemon.Config{PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
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
		want := map[uint64]uint64{}
		for _, iter := range []uint64{1, 2} { // one checkpoint into each slot
			placed.ApplyUpdate(iter)
			var concat []byte
			for i, tm := range spec.Tensors {
				concat = append(concat, placed.GPU.Mem().Bytes(placed.Offs[i], tm.Size)...)
			}
			want[iter] = crc64.Checksum(concat, table)
			cp, err := c.CheckpointAsync(env, iter)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.Wait(env); err != nil {
				t.Fatal(err)
			}
			if got := cp.CRC(); got != want[iter] {
				t.Fatalf("iteration %d: CHECKPOINT_DONE CRC %016x, want %016x", iter, got, want[iter])
			}
		}

		raw, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.Send(env, &wire.Msg{Type: wire.TList}); err != nil {
			t.Fatal(err)
		}
		resp, err := raw.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TListResp || len(resp.Models) != 1 {
			t.Fatalf("LIST = %+v", resp)
		}
		info := resp.Models[0]
		for _, s := range []struct {
			iter, crc uint64
		}{{info.Slot0Iter, info.Slot0CRC}, {info.Slot1Iter, info.Slot1CRC}} {
			if w, ok := want[s.iter]; !ok || s.crc != w {
				t.Fatalf("LIST slot iteration %d CRC %016x, want %016x", s.iter, s.crc, w)
			}
		}
	})
	eng.Run()
}
