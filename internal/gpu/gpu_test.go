package gpu

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
)

func TestPlaceTensorAddressesAreStable(t *testing.T) {
	g := New("v100-0", 1<<20, true)
	a, err := g.PlaceTensor(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.PlaceTensor(2000)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 1000 {
		t.Fatalf("tensor addresses = %d, %d", a, b)
	}
	if _, err := g.PlaceTensor(1 << 21); err == nil {
		t.Fatal("oversized placement succeeded")
	}
}

func TestPatternDeterministic(t *testing.T) {
	p1 := Pattern(4096, 42)
	p2 := Pattern(4096, 42)
	if !bytes.Equal(p1, p2) {
		t.Fatal("Pattern is not deterministic")
	}
	p3 := Pattern(4096, 43)
	if bytes.Equal(p1, p3) {
		t.Fatal("different seeds produced identical patterns")
	}
	if len(Pattern(7, 1)) != 7 {
		t.Fatal("Pattern length wrong for non-multiple-of-8 sizes")
	}
}

func TestFillTensorMaterializedMatchesStamp(t *testing.T) {
	g := New("a40-0", 1<<20, true)
	off, _ := g.PlaceTensor(8192)
	g.FillTensor(off, 8192, 7)
	want := PatternStamp(8192, 7)
	if got := g.Mem().StampOf(off, 8192); got != want {
		t.Fatalf("materialized stamp = %#x, want %#x", got, want)
	}
}

func TestFillTensorVirtualUsesSeedAsStamp(t *testing.T) {
	g := New("a40-1", 1<<40, false)
	off, _ := g.PlaceTensor(1 << 30)
	g.FillTensor(off, 1<<30, 99)
	if got := g.Mem().StampOf(off, 1<<30); got != 99 {
		t.Fatalf("virtual stamp = %d, want 99", got)
	}
}

func TestFillRegionOnArbitraryDevice(t *testing.T) {
	d := memdev.New("host", memdev.DRAM, 4096, true)
	FillRegion(d, 0, 64, 5)
	if !bytes.Equal(d.Bytes(0, 64), Pattern(64, 5)) {
		t.Fatal("FillRegion content mismatch")
	}
}

// TestContentHashAgreesProperty: for every length 0–257 (every tail
// shape of the hash, and several stripes) at a random offset on a
// materialized device, Fingerprint, StampOf and memdev.Hash of the
// bytes agree, on random content and on a FillRegion pattern, and
// PatternStamp predicts the pattern's stamp.
func TestContentHashAgreesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := memdev.New("gpu", memdev.GPU, 4096, true)
	raw := make([]byte, 4096)
	rng.Read(raw)
	d.Write(0, raw)
	agree := func(off, n int64) {
		t.Helper()
		fp, st, h := d.Fingerprint(off, n), d.StampOf(off, n), memdev.Hash(d.Bytes(off, n))
		if fp != st || st != h {
			t.Fatalf("[%d,+%d): Fingerprint %#x, StampOf %#x, Hash %#x", off, n, fp, st, h)
		}
	}
	for n := int64(0); n <= 257; n++ {
		off := rng.Int63n(4096 - n + 1)
		agree(off, n)
		seed := rng.Uint64()
		FillRegion(d, off, n, seed)
		agree(off, n)
		if got, want := d.StampOf(off, n), PatternStamp(n, seed); got != want {
			t.Fatalf("[%d,+%d) seed %d: StampOf %#x, PatternStamp %#x", off, n, seed, got, want)
		}
	}
}
