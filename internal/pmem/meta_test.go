package pmem

import (
	"bytes"
	"math/rand"
	"testing"
)

// resident counts the materialized bytes of a metadata zone.
func (z *metaZone) resident() int64 {
	var n int64
	for _, p := range z.pages {
		n += int64(len(p))
	}
	return n
}

// TestMetaZoneMatchesFlatArray drives random writes (zeros included),
// flushes and crashes against a device and a flat two-array model of
// the volatile and durable zones, which is what the metadata zone was
// before it materialized on touch. Reads, the durable image and crash
// recovery must agree byte for byte.
func TestMetaZoneMatchesFlatArray(t *testing.T) {
	const size = 5*metaPage + 123 // a short last page
	rng := rand.New(rand.NewSource(3))
	d := New(Config{Name: "z", DataSize: 1 << 12, MetaSize: size})
	vol, dur := make([]byte, size), make([]byte, size)
	span := func() (int64, int64) {
		off := rng.Int63n(size)
		return off, rng.Int63n(size-off) + 1
	}
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			off, n := span()
			p := make([]byte, n)
			if rng.Intn(3) > 0 {
				rng.Read(p)
			}
			d.WriteMeta(off, p)
			copy(vol[off:], p)
		case op < 8:
			off, n := span()
			d.FlushMeta(off, n)
			copy(dur[off:off+n], vol[off:off+n])
		case op < 9:
			d.Crash()
			copy(vol, dur)
		default:
			off, n := span()
			if got := d.MetaBytes(off, n); !bytes.Equal(got, vol[off:off+n]) {
				t.Fatalf("op %d: MetaBytes(%d, %d) differs from the flat model", i, off, n)
			}
		}
	}
	if got := d.MetaBytes(0, size); !bytes.Equal(got, vol) {
		t.Fatal("volatile zone differs from the flat model")
	}
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	hdr := len(imageMagic) + 4 + 4 + 8 + 8 + 1
	if got := img.Bytes()[hdr : hdr+size]; !bytes.Equal(got, dur) {
		t.Fatal("image meta zone differs from the flat durable model")
	}
	back, err := LoadImage("z", bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.MetaBytes(0, size); !bytes.Equal(got, dur) {
		t.Fatal("loaded meta zone differs from the flat durable model")
	}
}

// TestMetaZoneMaterializesOnTouch lays out a 16 MiB zone the way the
// index formats one — a superblock at the start, and a 4 MiB allocation
// table at the end that is zeroed and then given a header — and
// requires only the touched pages to be resident, before and after an
// image round trip.
func TestMetaZoneMaterializesOnTouch(t *testing.T) {
	const size, table = 16 << 20, 4 << 20
	d := New(Config{Name: "z", DataSize: 1 << 12, MetaSize: size})
	d.WriteMeta(0, bytes.Repeat([]byte{1}, 64))
	d.WriteMeta(size-table, make([]byte, table))
	d.WriteMeta(size-table, bytes.Repeat([]byte{2}, 24))
	d.FlushMeta(0, size)
	for _, z := range []*metaZone{d.meta, d.metaDur} {
		if got := z.resident(); got != 2*metaPage {
			t.Fatalf("%s: %d bytes resident, want %d", z.name, got, 2*metaPage)
		}
	}
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	back, err := LoadImage("z", &img)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.metaDur.resident(); got != 2*metaPage {
		t.Fatalf("loaded image: %d bytes resident, want %d", got, 2*metaPage)
	}
	if got := back.MetaBytes(size-table, 32); !bytes.Equal(got, append(bytes.Repeat([]byte{2}, 24), make([]byte, 8)...)) {
		t.Fatalf("allocation table header after round trip = %x", got)
	}
}
