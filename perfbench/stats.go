package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTailSamples is the fewest samples p90 accepts: with 100 samples, ten
// lie beyond the 90th percentile.
const minTailSamples = 100

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 returns the nearest-rank 90th percentile of xs. It refuses fewer than
// minTailSamples samples, where too few values lie beyond it to say anything.
func p90(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, fmt.Errorf("p90 needs at least %d samples, got %d", minTailSamples, len(xs))
	}
	s := slices.Sorted(slices.Values(xs))
	rank := int(math.Ceil(0.9 * float64(len(s))))
	return s[rank-1], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// validName reports whether s is a legal metric name: a leading letter or
// digit, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '_' || r == '.' || r == '-'):
		default:
			return false
		}
	}
	return true
}
