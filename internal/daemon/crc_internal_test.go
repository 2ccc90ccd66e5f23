package daemon

import (
	"hash/crc64"
	"math/rand"
	"sort"
	"testing"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/model"
)

// TestCRC64CombineProperty: for random A, B, combining their CRCs
// equals the CRC of A||B, including empty and one-byte halves.
func TestCRC64CombineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a := make([]byte, pickLen(rng))
		b := make([]byte, pickLen(rng))
		rng.Read(a)
		rng.Read(b)
		want := crc64.Checksum(append(append([]byte(nil), a...), b...), crcTable)
		if got := crc64Combine(crc64.Checksum(a, crcTable), crc64.Checksum(b, crcTable), int64(len(b))); got != want {
			t.Fatalf("trial %d (|A|=%d |B|=%d): combine %016x, want %016x", trial, len(a), len(b), got, want)
		}
	}
}

// pickLen favors the edge lengths 0 and 1 and otherwise spans several
// powers of two, so every bit position of len(B) gets exercised.
func pickLen(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(2)
	case 1:
		return rng.Intn(64)
	default:
		return rng.Intn(1 << uint(rng.Intn(17)))
	}
}

// TestCRCExtentsAnySplit: hashing scattered extents split at random
// points — empty parts, one-byte parts, cuts inside an extent and cuts
// on or across extent boundaries — always gives the serial CRC64 of the
// extents' bytes concatenated in order.
func TestCRCExtentsAnySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dev := memdev.New("pm", memdev.PMEM, 1<<20, true)
	raw := make([]byte, 1<<20)
	rng.Read(raw)
	dev.Write(0, raw)
	// Out of device order, with gaps, including a 1-byte and an empty
	// extent.
	exts := []alloc.Extent{
		{Off: 700_000, Size: 40_000}, {Off: 13, Size: 1}, {Off: 100_000, Size: 123_457},
		{Off: 90_000, Size: 0}, {Off: 500_000, Size: 65_536}, {Off: 4_096, Size: 7},
	}
	var concat []byte
	var total int64
	var boundaries []int64
	for _, e := range exts {
		concat = append(concat, raw[e.Off:e.Off+e.Size]...)
		total += e.Size
		boundaries = append(boundaries, total)
	}
	want := crc64.Checksum(concat, crcTable)

	for trial := 0; trial < 200; trial++ {
		cuts := []int64{0, total}
		for k := rng.Intn(8); k > 0; k-- {
			switch rng.Intn(4) {
			case 0: // on an extent boundary
				cuts = append(cuts, boundaries[rng.Intn(len(boundaries))])
			case 1: // a one-byte part
				c := rng.Int63n(total)
				cuts = append(cuts, c, c+1)
			case 2: // a repeated cut: an empty part
				c := rng.Int63n(total + 1)
				cuts = append(cuts, c, c)
			default:
				cuts = append(cuts, rng.Int63n(total+1))
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		if got := crcExtents(dev, exts, cuts); got != want {
			t.Fatalf("trial %d cuts %v: CRC %016x, want %016x", trial, cuts, got, want)
		}
	}
	if got := crcExtents(dev, exts, memdev.Parts(total, 1)); got != want {
		t.Fatalf("even split: CRC %016x, want %016x", got, want)
	}
}

// BenchmarkContentCRC hashes a resnet50-sized slot (97 MiB over 161
// tensor extents) in place, serially and split across GOMAXPROCS cores.
func BenchmarkContentCRC(b *testing.B) {
	spec, err := model.ByName("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	total := spec.TotalSize()
	dev := memdev.New("pm", memdev.PMEM, total, true)
	gpu.FillRegion(dev, 0, total, 1)
	exts := make([]alloc.Extent, len(spec.Tensors))
	var off int64
	for i, tm := range spec.Tensors {
		exts[i] = alloc.Extent{Off: off, Size: tm.Size}
		off += tm.Size
	}
	for _, c := range []struct {
		name   string
		bounds []int64
	}{{"serial", []int64{0, total}}, {"split", memdev.Parts(total, crcMinPart)}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				crcSink = crcExtents(dev, exts, c.bounds)
			}
		})
	}
}

var crcSink uint64

// BenchmarkCRC64Combine folds one part CRC into a running CRC across
// a part of a resnet50-sized slot: the per-part cost of crcExtents.
func BenchmarkCRC64Combine(b *testing.B) {
	crc := uint64(0x0123456789abcdef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crc = crc64Combine(crc, uint64(i), 48<<20)
	}
	crcSink = crc
}
