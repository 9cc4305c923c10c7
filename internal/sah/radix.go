package sah

import (
	"math"
	"slices"
)

// radixCutoff is the key count below which radixSort hands over to
// slices.Sort: a radix pass costs a 256-bucket prefix sum per digit, which
// a short comparison sort beats.
const radixCutoff = 256

// radixCounts holds one 256-bucket histogram per byte of a uint64 key.
type radixCounts [8][256]uint32

// floatKey maps f to a uint64 whose unsigned order is f's numeric order:
// the sign bit is flipped for non-negative values and every bit for
// negative ones. −0 is folded to +0 first, because the two compare equal.
// NaN has no place in the order and must not be passed.
func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// radixSort sorts keys ascending: a least-significant-digit radix sort over
// the eight bytes, ping-ponging through tmp (len(tmp) >= len(keys)), that
// skips every byte on which all keys agree. Coordinates of one node share
// their sign and most exponent bits, so typically only the low mantissa
// bytes cost a pass.
func radixSort(keys, tmp []uint64, count *radixCounts) {
	if len(keys) < radixCutoff {
		slices.Sort(keys)
		return
	}
	*count = radixCounts{}
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := keys, tmp[:len(keys)]
	for d := range count {
		c := &count[d]
		shift := 8 * uint(d)
		if c[byte(src[0]>>shift)] == uint32(len(keys)) {
			continue // every key has this digit: the pass would not move any
		}
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
