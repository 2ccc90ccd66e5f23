package gpu

import (
	"runtime"
	"slices"
	"testing"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
)

func placedFixture(t *testing.T, materialized bool) *PlacedModel {
	t.Helper()
	g := New("g0", 64<<20, materialized)
	p, err := Place(g, model.GPT("m", 2, 64, 256, 0))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlaceFillsIterationZero(t *testing.T) {
	p := placedFixture(t, true)
	if p.Iteration != 0 {
		t.Fatalf("fresh iteration = %d", p.Iteration)
	}
	if bad := p.VerifyIteration(0); bad != -1 {
		t.Fatalf("tensor %d does not hold iteration-0 weights", bad)
	}
}

func TestApplyUpdateChangesEveryTensor(t *testing.T) {
	p := placedFixture(t, true)
	before := make([]uint64, len(p.Offs))
	for i := range p.Offs {
		before[i] = p.TensorStamp(i)
	}
	p.ApplyUpdate(1)
	for i := range p.Offs {
		if p.TensorStamp(i) == before[i] {
			t.Fatalf("tensor %d unchanged by update", i)
		}
	}
	if bad := p.VerifyIteration(1); bad != -1 {
		t.Fatalf("tensor %d wrong after update", bad)
	}
	if p.VerifyIteration(0) == -1 {
		t.Fatal("old iteration still verifies after update")
	}
}

func TestExpectedStampModeAware(t *testing.T) {
	mat := placedFixture(t, true)
	virt := placedFixture(t, false)
	// Materialized: stamp is the pattern hash; virtual: the raw seed.
	if mat.ExpectedStamp(0, 3) == mat.Spec.TensorSeed(0, 3) {
		t.Fatal("materialized expected stamp should be hashed, not the seed")
	}
	if virt.ExpectedStamp(0, 3) != virt.Spec.TensorSeed(0, 3) {
		t.Fatal("virtual expected stamp should be the seed")
	}
}

func TestPlaceFailsWhenHBMExhausted(t *testing.T) {
	g := New("tiny", 1<<10, false)
	if _, err := Place(g, model.GPT("m", 2, 64, 256, 0)); err == nil {
		t.Fatal("placement into 1KiB HBM succeeded")
	}
}

// TestBlockDigestsSplitMatchesSerial: digesting a materialized model's
// blocks across cores yields exactly the per-block fingerprints in
// registration order, short tail blocks included, before and after a
// sparse update.
func TestBlockDigestsSplitMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const block = 64 << 10
	spec := model.Spec{Name: "d"}
	for _, size := range []int64{3<<20 + 5, 700, 2 << 20, 1<<20 + 1} {
		spec.Tensors = append(spec.Tensors, index.TensorMeta{Name: "t", DType: index.F32, Size: size})
	}
	p, err := Place(New("g0", 16<<20, true), spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := func() []uint64 {
		var out []uint64
		for i, tm := range spec.Tensors {
			for off := int64(0); off < tm.Size; off += block {
				out = append(out, p.GPU.Mem().Fingerprint(p.Offs[i]+off, min(block, tm.Size-off)))
			}
		}
		return out
	}
	before := p.BlockDigests(block)
	if want := serial(); !slices.Equal(before, want) {
		t.Fatalf("split digests differ from serial: %d vs %d blocks", len(before), len(want))
	}
	p.ApplySparseUpdate(1, block, 0.1)
	after := p.BlockDigests(block)
	if want := serial(); !slices.Equal(after, want) {
		t.Fatal("split digests differ from serial after a sparse update")
	}
	if slices.Equal(before, after) {
		t.Fatal("sparse update changed no digest")
	}
}
