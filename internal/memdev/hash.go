package memdev

import (
	"encoding/binary"
	"math/bits"
)

// XXH64 primes.
const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5

	// Seed-0 lane starts, wrapped mod 2^64: prime1+prime2 and -prime1.
	lane1 uint64 = 0x60ea27eeadc0b5d6
	lane4 uint64 = 0x61c8864e7a143579
)

// Hash returns the content hash of p: XXH64 with seed 0. It is the one
// hash of materialized bytes (Device.StampOf, Device.Fingerprint and
// everything built on them), chosen for speed: each 32-byte stripe
// feeds four independent 8-byte lanes, so the multiplies overlap and a
// core hashes several GB/s, where byte-at-a-time FNV-1a chains one
// dependent multiply per byte. Results are equality tokens, compared
// only with other results of Hash.
func Hash(p []byte) uint64 {
	n := len(p)
	var h uint64
	if n >= 32 {
		v1, v2, v3, v4 := lane1, prime2, uint64(0), lane4
		for ; len(p) >= 32; p = p[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(p[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = prime5
	}
	h += uint64(n)

	for ; len(p) >= 8; p = p[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(p))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}

	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, in uint64) uint64 {
	return bits.RotateLeft64(acc+in*prime2, 31) * prime1
}

func mergeRound(acc, v uint64) uint64 {
	return (acc^round(0, v))*prime1 + prime4
}
