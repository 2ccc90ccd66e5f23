package rdma

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// newTCPPair serves two nodes over loopback agents and wires their peer
// tables together.
func newTCPPair(t *testing.T) (env sim.Env, f *TCPFabric, client, server *Node) {
	t.Helper()
	renv := sim.NewRealEnv()
	f = NewTCPFabric(renv)
	client = NewNode(renv, "client")
	server = NewNode(renv, "server")
	for _, n := range []*Node{client, server} {
		if _, err := f.Serve(n, ""); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(f.Close)
	return renv, f, client, server
}

func TestTCPReadMaterialized(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	cgpu.Write(100, []byte("weights"))
	rmr := client.RegisterMR(env, cgpu, 100, 7)
	lmr := server.RegisterMR(env, spm, 0, 7)

	err := f.Read(env, server,
		Slice{MR: lmr, Len: 7},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 7}, Len: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := spm.Bytes(0, 7); !bytes.Equal(got, []byte("weights")) {
		t.Fatalf("pulled %q over TCP", got)
	}
}

func TestTCPWriteMaterialized(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	spm.Write(0, []byte("checkpoint"))
	lmr := server.RegisterMR(env, spm, 0, 10)
	rmr := client.RegisterMR(env, cgpu, 0, 10)

	err := f.Write(env, server,
		Slice{MR: lmr, Len: 10},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 10}, Len: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := cgpu.Bytes(0, 10); !bytes.Equal(got, []byte("checkpoint")) {
		t.Fatalf("restored %q over TCP", got)
	}
}

func TestTCPVirtualStamps(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<40, false)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<40, false)
	cgpu.WriteStamp(0, 1<<30, 77)
	rmr := client.RegisterMR(env, cgpu, 0, 1<<30)
	lmr := server.RegisterMR(env, spm, 0, 1<<30)

	err := f.Read(env, server,
		Slice{MR: lmr, Len: 1 << 30},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 1 << 30}, Len: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := spm.StampOf(0, 1<<30); got != 77 {
		t.Fatalf("virtual stamp over TCP = %d, want 77", got)
	}
}

func TestTCPBadRKeyReportsRemoteError(t *testing.T) {
	env, f, _, server := newTCPPair(t)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 8)
	err := f.Read(env, server,
		Slice{MR: lmr, Len: 8},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: 42, Len: 8}, Len: 8})
	if err == nil || !strings.Contains(err.Error(), "unknown remote key") {
		t.Fatalf("err = %v, want remote rkey error", err)
	}
}

func TestTCPSendRecv(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload, size, err := f.Recv(env, server, "ctrl")
		if err != nil {
			t.Error(err)
			return
		}
		if string(payload) != "REGISTER" || size != 8 {
			t.Errorf("recv = %q (%d)", payload, size)
		}
	}()
	if err := f.Send(env, client, "server", "ctrl", []byte("REGISTER"), 8); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestTCPConcurrentOneSidedOps(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	const n = 16
	rmrs := make([]MR, n)
	lmrs := make([]MR, n)
	for i := 0; i < n; i++ {
		cgpu.Write(int64(i)*64, []byte{byte(i + 1)})
		rmrs[i] = client.RegisterMR(env, cgpu, int64(i)*64, 1)
		lmrs[i] = server.RegisterMR(env, spm, int64(i)*64, 1)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := f.Read(env, server,
				Slice{MR: lmrs[i], Len: 1},
				RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmrs[i].RKey, Len: 1}, Len: 1})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := spm.Bytes(int64(i)*64, 1)[0]; got != byte(i+1) {
			t.Fatalf("slot %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	env, f, _, server := newTCPPair(t)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 8)
	err := f.Read(env, server,
		Slice{MR: lmr, Len: 8},
		RemoteSlice{MR: RemoteMR{Node: "nowhere", RKey: 1, Len: 8}, Len: 8})
	if err == nil {
		t.Fatal("read to unknown peer succeeded")
	}
}

// TestTCPLargeTransferAllocations: a 4 MiB READ or WRITE streams
// between the socket and the device regions, so across both endpoints
// it allocates a small fraction of the transfer — no frame-sized
// buffers, no per-connection buffers.
func TestTCPLargeTransferAllocations(t *testing.T) {
	const chunk = 4 << 20
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, chunk, true)
	spm := memdev.New("pmem0", memdev.PMEM, chunk, true)
	cgpu.Write(0, bytes.Repeat([]byte("tensor"), chunk/8))
	rmr := client.RegisterMR(env, cgpu, 0, chunk)
	lmr := server.RegisterMR(env, spm, 0, chunk)
	local := Slice{MR: lmr, Len: chunk}
	remote := RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: chunk}, Len: chunk}
	for _, verb := range []struct {
		name string
		op   func(sim.Env, *Node, Slice, RemoteSlice) error
	}{{"read", f.Read}, {"write", f.Write}} {
		if err := verb.op(env, server, local, remote); err != nil { // warm the connection
			t.Fatal(err)
		}
		const ops = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if err := verb.op(env, server, local, remote); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / ops; per > chunk/8 {
			t.Fatalf("4 MiB %s allocates %d bytes per op, want under %d", verb.name, per, chunk/8)
		}
	}
	if !bytes.Equal(spm.Bytes(0, chunk), cgpu.Bytes(0, chunk)) {
		t.Fatal("content differs after the transfers")
	}
}

// TestTCPRejectedPayloadKeepsConnection: a payload the receiving region
// cannot take — wrong content mode, unknown rkey — is drained and
// reported, and the cached connection stays in frame sync for the next
// verb.
func TestTCPRejectedPayloadKeepsConnection(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	vgpu := memdev.New("gpu1", memdev.GPU, 1<<20, false)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	cgpu.Write(0, []byte("weights!"))
	vgpu.WriteStamp(0, 8, 99)
	good := client.RegisterMR(env, cgpu, 0, 8)
	virt := client.RegisterMR(env, vgpu, 0, 8)
	lmr := server.RegisterMR(env, spm, 0, 8)
	local := Slice{MR: lmr, Len: 8}
	remote := func(rkey uint64) RemoteSlice {
		return RemoteSlice{MR: RemoteMR{Node: "client", RKey: rkey, Len: 8}, Len: 8}
	}
	if err := f.Read(env, server, local, remote(virt.RKey)); !errors.Is(err, ErrModeMismatch) {
		t.Fatalf("read of a virtual region into materialized memory: err = %v, want ErrModeMismatch", err)
	}
	if err := f.Write(env, server, local, remote(42)); err == nil || !strings.Contains(err.Error(), "unknown remote key") {
		t.Fatalf("write to an unknown rkey: err = %v", err)
	}
	if err := f.Read(env, server, local, remote(good.RKey)); err != nil {
		t.Fatal(err)
	}
	if got := spm.Bytes(0, 8); !bytes.Equal(got, []byte("weights!")) {
		t.Fatalf("read after rejections = %q", got)
	}
}
