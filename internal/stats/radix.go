package stats

// The module's one sorting kernel for fixed-width keys: a stable LSD
// radix over 11-bit digits that ping-pongs between two caller-owned
// buffers. No comparisons, and only as many passes as the widest key
// present needs. graph packs edges into the keys; sortedCopy sorts
// non-negative floats by their bit patterns.

// RadixBits is the width of one RadixSort digit.
const RadixBits = 11

const radixMask = 1<<RadixBits - 1

// RadixPasses is the number of digits covering keys of width
// significant bits.
func RadixPasses(width int) int {
	return (width + RadixBits - 1) / RadixBits
}

// RadixSort stably sorts src by the passes digits starting at bit
// shift, alternating between src and dst (which must be as long), and
// returns the buffer holding the result and the other one.
func RadixSort(src, dst []uint64, shift uint, passes int) (sorted, spare []uint64) {
	for ; passes > 0; passes-- {
		var next [1 << RadixBits]int
		for _, e := range src {
			next[e>>shift&radixMask]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, e := range src {
			d := e >> shift & radixMask
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
		shift += RadixBits
	}
	return src, dst
}
