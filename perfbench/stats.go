package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricName is the pattern every emitted metric name must match (the
// benchmark format's name rule: letters, digits, '_', '.', '-', starting
// with a letter or digit, at most 64 characters).
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// median returns the median of vs (the mean of the middle pair for an even
// count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs; 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartiles of vs with the method of
// Python's statistics.quantiles(vs, n=4) (the default "exclusive" method),
// which is how run-to-run spread is judged. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64, err error) {
	if len(vs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(vs))
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1) // clamped as Python does
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), nil
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) (float64, error) {
	q1, q3, err := quartiles(vs)
	if err != nil {
		return 0, err
	}
	med := median(vs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a zero median")
	}
	return (q3 - q1) / med, nil
}
