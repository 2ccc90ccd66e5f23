package pmem

import (
	"bytes"
	"fmt"
	"io"
)

// metaPage is the granularity at which a metadata zone materializes.
const metaPage = 4 << 10

// zeroPage is the content of every page never materialized.
var zeroPage [metaPage]byte

// metaZone holds the bytes of a metadata zone, materialized on first
// touch one page at a time: a page that has only ever been written with
// zeros is not allocated and reads as zeros. The index uses a few pages
// at the start of the zone and a few of the allocation table at its end,
// so a 16 MiB zone costs kilobytes, not megabytes. Offsets, size and
// content are exactly those of a flat byte array, so the image format
// and every index offset are unchanged.
type metaZone struct {
	name  string
	size  int64
	pages [][]byte // nil: all zeros
}

func newMetaZone(name string, size int64) *metaZone {
	return &metaZone{name: name, size: size, pages: make([][]byte, (size+metaPage-1)/metaPage)}
}

func (z *metaZone) check(off, n int64) {
	if off < 0 || n < 0 || off+n > z.size {
		panic(fmt.Sprintf("pmem: %s: access [%d,%d) outside metadata zone of size %d", z.name, off, off+n, z.size))
	}
}

// pageLen is the length of page pg; only the last page may be short.
func (z *metaZone) pageLen(pg int64) int64 {
	return min(metaPage, z.size-pg*metaPage)
}

// page returns page pg, materializing it if alloc is set.
func (z *metaZone) page(pg int64, alloc bool) []byte {
	if z.pages[pg] == nil && alloc {
		z.pages[pg] = make([]byte, z.pageLen(pg))
	}
	return z.pages[pg]
}

// walk calls fn for each page-bounded piece [in, in+k) of page pg that
// makes up [off, off+n); pos is the piece's offset within the range.
func (z *metaZone) walk(off, n int64, fn func(pg, in, k, pos int64)) {
	z.check(off, n)
	for pos := int64(0); pos < n; {
		pg, in := (off+pos)/metaPage, (off+pos)%metaPage
		k := min(n-pos, z.pageLen(pg)-in)
		fn(pg, in, k, pos)
		pos += k
	}
}

// write stores p at off. Zeros written to an untouched page leave it
// untouched.
func (z *metaZone) write(off int64, p []byte) {
	z.walk(off, int64(len(p)), func(pg, in, k, pos int64) {
		src := p[pos : pos+k]
		if dst := z.page(pg, !allZero(src)); dst != nil {
			copy(dst[in:], src)
		}
	})
}

// read fills p from off.
func (z *metaZone) read(off int64, p []byte) {
	z.walk(off, int64(len(p)), func(pg, in, k, pos int64) {
		if src := z.pages[pg]; src != nil {
			copy(p[pos:pos+k], src[in:in+k])
		} else {
			clear(p[pos : pos+k])
		}
	})
}

// copyFrom makes [off, off+n) of z equal to the same range of src.
func (z *metaZone) copyFrom(src *metaZone, off, n int64) {
	z.walk(off, n, func(pg, in, k, _ int64) {
		from := src.pages[pg]
		if dst := z.page(pg, from != nil); dst != nil {
			if from != nil {
				copy(dst[in:in+k], from[in:in+k])
			} else {
				clear(dst[in : in+k])
			}
		}
	})
}

// writeTo writes the whole zone to w as one flat byte array.
func (z *metaZone) writeTo(w io.Writer) error {
	for pg, p := range z.pages {
		if p == nil {
			p = zeroPage[:z.pageLen(int64(pg))]
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// allZero reports whether p, at most a page long, holds only zeros.
func allZero(p []byte) bool { return bytes.Equal(p, zeroPage[:len(p)]) }
