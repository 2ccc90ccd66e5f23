package memdev

import "testing"

// TestHashKnownAnswers pins Hash to the published XXH64 seed-0 vectors.
// The 63-byte input runs the stripe loop once and then the 8-, 4- and
// 1-byte tails.
func TestHashKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := Hash([]byte(c.in)); got != c.want {
			t.Errorf("Hash(%q) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
}

// BenchmarkFingerprint hashes one 64 KiB materialized block: the
// default delta digest block, and the unit of the client's per-block
// digest pass.
func BenchmarkFingerprint(b *testing.B) {
	const block = 64 << 10
	d := New("gpu", GPU, block, true)
	p := make([]byte, block)
	for i := range p {
		p[i] = byte(i * 131)
	}
	d.Write(0, p)
	b.SetBytes(block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = d.Fingerprint(0, block)
	}
}

var hashSink uint64
