// Package alloc manages the PMem data zone: the contiguous TensorData
// regions the Portus daemon allocates for each model version. Allocation
// state is persisted in an AllocTable in the metadata zone so a daemon
// restart (or portusctl) can reconstruct ownership from the raw image,
// and a repacking pass can find and compact live extents (§III-D2).
//
// The fast path claims fresh space by compare-and-swap on a bump
// pointer, keeping concurrent daemon workers lock-free as the paper
// prescribes; freed extents are recycled under a short mutex.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/portus-sys/portus/internal/pmem"
)

// Table layout constants.
const (
	headerSize = 32
	slotSize   = 24 // off u64 | size u64 | state u64

	tableMagic = 0x504f52545355414c // "PORTUSAL"

	stateFree = 0
	stateUsed = 1

	// Align rounds every allocation to a cache line.
	Align = 64
)

// Errors returned by the allocator.
var (
	ErrNoSpace    = errors.New("alloc: persistent memory exhausted")
	ErrNoSlots    = errors.New("alloc: allocation table full")
	ErrNotAlloced = errors.New("alloc: extent not allocated")
)

// Extent is one allocated region of the data zone.
type Extent struct {
	Off  int64
	Size int64
}

// Allocator manages the data zone of one namespace.
type Allocator struct {
	pm       *pmem.Device
	tableOff int64 // AllocTable base in the metadata zone
	slotCap  int64
	dataSize int64

	brk atomic.Int64 // data-zone bump pointer

	mu        sync.Mutex
	free      []Extent        // recycled extents, sorted by offset
	slotOf    map[int64]int64 // data-zone offset -> slot index
	freeSlots []int64
}

// Format initializes a fresh AllocTable occupying [tableOff, tableOff+
// tableLen) of the metadata zone and returns the allocator.
func Format(pm *pmem.Device, tableOff, tableLen int64) (*Allocator, error) {
	slotCap := (tableLen - headerSize) / slotSize
	if slotCap < 1 {
		return nil, fmt.Errorf("alloc: table region too small (%d bytes)", tableLen)
	}
	a := &Allocator{
		pm:       pm,
		tableOff: tableOff,
		slotCap:  slotCap,
		dataSize: pm.DataSize(),
		slotOf:   make(map[int64]int64),
	}
	// The data zone starts allocating at Align, reserving offset 0 as an
	// invalid sentinel (index pointers use 0 for "no extent").
	a.brk.Store(Align)
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(hdr[0:], tableMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(slotCap))
	binary.LittleEndian.PutUint64(hdr[16:], Align) // brk
	pm.WriteMeta(tableOff, hdr)
	// Zero the slot region so state reads as free.
	pm.WriteMeta(tableOff+headerSize, make([]byte, slotCap*slotSize))
	pm.FlushMeta(tableOff, headerSize+slotCap*slotSize)
	a.freeSlots = make([]int64, 0, slotCap)
	for i := int64(slotCap) - 1; i >= 0; i-- {
		a.freeSlots = append(a.freeSlots, i)
	}
	return a, nil
}

// Open reconstructs the allocator from a previously formatted table.
// The data-zone bump pointer recovers as the maximum of the persisted
// value and the end of the highest live extent, so a crash between slot
// persist and pointer persist can never double-allocate.
func Open(pm *pmem.Device, tableOff int64) (*Allocator, error) {
	if tableOff < 0 || tableOff+headerSize > pm.MetaSize() {
		return nil, fmt.Errorf("alloc: table offset %d outside metadata zone", tableOff)
	}
	hdr := pm.MetaBytes(tableOff, headerSize)
	if binary.LittleEndian.Uint64(hdr) != tableMagic {
		return nil, fmt.Errorf("alloc: bad table magic at %d", tableOff)
	}
	slotCap := int64(binary.LittleEndian.Uint64(hdr[8:]))
	brk := int64(binary.LittleEndian.Uint64(hdr[16:]))
	// Overflow-safe: slotCap*slotSize could wrap for corrupt values.
	if slotCap < 0 || slotCap > (pm.MetaSize()-tableOff-headerSize)/slotSize {
		return nil, fmt.Errorf("alloc: corrupt slot capacity %d", slotCap)
	}
	if brk < 0 || brk > pm.DataSize() {
		return nil, fmt.Errorf("alloc: corrupt bump pointer %d", brk)
	}
	a := &Allocator{
		pm:       pm,
		tableOff: tableOff,
		slotCap:  slotCap,
		dataSize: pm.DataSize(),
		slotOf:   make(map[int64]int64),
	}
	raw := pm.MetaBytes(tableOff+headerSize, slotCap*slotSize)
	var used []Extent
	for i := int64(0); i < slotCap; i++ {
		rec := raw[i*slotSize:]
		state := binary.LittleEndian.Uint64(rec[16:])
		if state != stateUsed {
			a.freeSlots = append(a.freeSlots, i)
			continue
		}
		e := Extent{
			Off:  int64(binary.LittleEndian.Uint64(rec[0:])),
			Size: int64(binary.LittleEndian.Uint64(rec[8:])),
		}
		used = append(used, e)
		a.slotOf[e.Off] = i
		if end := e.Off + e.Size; end > brk {
			brk = end
		}
	}
	if brk < Align {
		brk = Align // offset 0 stays reserved
	}
	a.brk.Store(brk)
	// Gaps below brk between used extents are reusable.
	sort.Slice(used, func(i, j int) bool { return used[i].Off < used[j].Off })
	prev := int64(Align)
	for _, e := range used {
		if e.Off > prev {
			a.free = append(a.free, Extent{Off: prev, Size: e.Off - prev})
		}
		prev = e.Off + e.Size
	}
	// Reverse freeSlots so low indices are handed out first (cosmetic
	// but keeps tables compact and deterministic).
	sort.Slice(a.freeSlots, func(i, j int) bool { return a.freeSlots[i] > a.freeSlots[j] })
	return a, nil
}

// Allocate claims size bytes of the data zone and returns the extent
// offset. Size is rounded up to the allocation alignment.
func (a *Allocator) Allocate(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: invalid size %d", size)
	}
	size = (size + Align - 1) / Align * Align

	// Recycled extents first (first fit, exact split).
	a.mu.Lock()
	for i, e := range a.free {
		if e.Size >= size {
			off := e.Off
			if e.Size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = Extent{Off: e.Off + size, Size: e.Size - size}
			}
			err := a.recordLocked(off, size)
			a.mu.Unlock()
			if err != nil {
				return 0, err
			}
			return off, nil
		}
	}
	a.mu.Unlock()

	// Lock-free bump fast path.
	for {
		cur := a.brk.Load()
		next := cur + size
		if next > a.dataSize {
			return 0, fmt.Errorf("%w: need %d, %d free", ErrNoSpace, size, a.dataSize-cur)
		}
		if a.brk.CompareAndSwap(cur, next) {
			a.mu.Lock()
			err := a.recordLocked(cur, size)
			a.mu.Unlock()
			if err != nil {
				return 0, err
			}
			a.persistBrk(next)
			return cur, nil
		}
	}
}

// recordLocked persists a used slot for the extent.
func (a *Allocator) recordLocked(off, size int64) error {
	if len(a.freeSlots) == 0 {
		return ErrNoSlots
	}
	slot := a.freeSlots[len(a.freeSlots)-1]
	a.freeSlots = a.freeSlots[:len(a.freeSlots)-1]
	a.slotOf[off] = slot
	rec := make([]byte, slotSize)
	binary.LittleEndian.PutUint64(rec[0:], uint64(off))
	binary.LittleEndian.PutUint64(rec[8:], uint64(size))
	binary.LittleEndian.PutUint64(rec[16:], stateUsed)
	at := a.tableOff + headerSize + slot*slotSize
	a.pm.WriteMeta(at, rec)
	a.pm.FlushMeta(at, slotSize)
	return nil
}

func (a *Allocator) persistBrk(brk int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(brk))
	a.pm.WriteMeta(a.tableOff+16, b[:])
	a.pm.Persist8(a.tableOff + 16)
}

// Free releases the extent at off back to the allocator.
func (a *Allocator) Free(off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	slot, ok := a.slotOf[off]
	if !ok {
		return fmt.Errorf("%w: offset %d", ErrNotAlloced, off)
	}
	at := a.tableOff + headerSize + slot*slotSize
	size := int64(binary.LittleEndian.Uint64(a.pm.MetaBytes(at+8, 8)))
	var z [8]byte
	a.pm.WriteMeta(at+16, z[:]) // state = free
	a.pm.Persist8(at + 16)
	delete(a.slotOf, off)
	a.freeSlots = append(a.freeSlots, slot)
	a.free = append(a.free, Extent{Off: off, Size: size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].Off < a.free[j].Off })
	a.coalesceLocked()
	return nil
}

// coalesceLocked merges adjacent free extents.
func (a *Allocator) coalesceLocked() {
	if len(a.free) < 2 {
		return
	}
	out := a.free[:1]
	for _, e := range a.free[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Size == e.Off {
			last.Size += e.Size
		} else {
			out = append(out, e)
		}
	}
	a.free = out
}

// Live returns all allocated extents sorted by offset.
func (a *Allocator) Live() []Extent {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Extent, 0, len(a.slotOf))
	for off, slot := range a.slotOf {
		at := a.tableOff + headerSize + slot*slotSize
		size := int64(binary.LittleEndian.Uint64(a.pm.MetaBytes(at+8, 8)))
		out = append(out, Extent{Off: off, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// InUse reports the total bytes in allocated extents.
func (a *Allocator) InUse() int64 {
	var sum int64
	for _, e := range a.Live() {
		sum += e.Size
	}
	return sum
}

// HighWater reports the bump pointer — the highest byte ever allocated.
func (a *Allocator) HighWater() int64 { return a.brk.Load() }

// Rebuild replaces the allocation table wholesale with the given live
// extents and sets the bump pointer just past the last one. The repacker
// calls this after compacting TensorData into a contiguous prefix.
func (a *Allocator) Rebuild(live []Extent) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int64(len(live)) > a.slotCap {
		return ErrNoSlots
	}
	// Wipe the persistent table.
	a.pm.WriteMeta(a.tableOff+headerSize, make([]byte, a.slotCap*slotSize))
	a.pm.FlushMeta(a.tableOff+headerSize, a.slotCap*slotSize)
	a.slotOf = make(map[int64]int64)
	a.freeSlots = a.freeSlots[:0]
	for i := a.slotCap - 1; i >= 0; i-- {
		a.freeSlots = append(a.freeSlots, i)
	}
	a.free = nil
	brk := int64(Align)
	for _, e := range live {
		if err := a.recordLocked(e.Off, e.Size); err != nil {
			return err
		}
		if end := e.Off + e.Size; end > brk {
			brk = end
		}
	}
	a.brk.Store(brk)
	a.persistBrk(brk)
	return nil
}

// FreeBytes reports space still available (recycled gaps plus untouched
// tail).
func (a *Allocator) FreeBytes() int64 {
	a.mu.Lock()
	var gaps int64
	for _, e := range a.free {
		gaps += e.Size
	}
	a.mu.Unlock()
	return gaps + (a.dataSize - a.brk.Load())
}

// FragmentedBytes reports the bytes trapped in recycled gaps below the
// bump pointer — space only a first-fit hit or a repack pass can serve.
// The storage engine compares this against its watermark.
func (a *Allocator) FragmentedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var gaps int64
	for _, e := range a.free {
		gaps += e.Size
	}
	return gaps
}

// DataSize reports the data-zone capacity.
func (a *Allocator) DataSize() int64 { return a.dataSize }

// AllocateBelow claims size bytes from the recycled free list, but only
// from an extent that fits entirely below limit. It never bumps the
// pointer: the online repacker uses it to guarantee every move is
// strictly downward (dst+size <= src), so a crash mid-copy can never
// have scribbled over live source bytes. Returns ok=false when no gap
// qualifies.
func (a *Allocator) AllocateBelow(size, limit int64) (int64, bool, error) {
	if size <= 0 {
		return 0, false, fmt.Errorf("alloc: invalid size %d", size)
	}
	size = (size + Align - 1) / Align * Align
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, e := range a.free {
		if e.Size < size || e.Off+size > limit {
			continue
		}
		off := e.Off
		if e.Size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = Extent{Off: e.Off + size, Size: e.Size - size}
		}
		if err := a.recordLocked(off, size); err != nil {
			return 0, false, err
		}
		return off, true, nil
	}
	return 0, false, nil
}

// TrimBrk lowers the bump pointer to just past the highest live extent,
// returning freed tail bytes to the lock-free fast path, and drops free
// extents at or beyond the new pointer. Only safe when the caller
// serializes every allocator mutation (the storage engine holds its own
// mutex across all Allocate/Free/TrimBrk calls); a concurrent lock-free
// bump racing this would double-allocate the reclaimed tail.
func (a *Allocator) TrimBrk() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	newBrk := int64(Align)
	for off, slot := range a.slotOf {
		at := a.tableOff + headerSize + slot*slotSize
		size := int64(binary.LittleEndian.Uint64(a.pm.MetaBytes(at+8, 8)))
		if end := off + size; end > newBrk {
			newBrk = end
		}
	}
	if newBrk >= a.brk.Load() {
		return a.brk.Load()
	}
	// Free extents wholly or partly above the new pointer dissolve into
	// the untouched tail.
	out := a.free[:0]
	for _, e := range a.free {
		if e.Off >= newBrk {
			continue
		}
		if e.Off+e.Size > newBrk {
			e.Size = newBrk - e.Off
		}
		out = append(out, e)
	}
	a.free = out
	a.brk.Store(newBrk)
	a.persistBrk(newBrk)
	return newBrk
}
