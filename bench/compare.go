package main

import (
	"fmt"
	"math"
)

// compareResults judges result set b against a on every end-to-end metric of
// every workload either set measured. It returns the printable rows and the
// "workload/metric" pairs that are worse beyond their bound.
func compareResults(a, b *resultFile) (rows []string, worse []string) {
	for _, spec := range workloads {
		ra, rb := a.workload(spec.Name), b.workload(spec.Name)
		if ra == nil && rb == nil {
			continue
		}
		for _, m := range metricsOfTier(tierGated, tierEndToEnd) {
			va, vb := math.NaN(), math.NaN()
			var sa, sb float64
			if ra != nil {
				if v, ok := ra.Metrics[m.Name]; ok {
					va, sa = v, ra.Spread[m.Name]
				}
			}
			if rb != nil {
				if v, ok := rb.Metrics[m.Name]; ok {
					vb, sb = v, rb.Spread[m.Name]
				}
			}
			if math.IsNaN(va) && math.IsNaN(vb) {
				continue // the metric does not apply to this workload
			}
			verdict := judge(m, va, vb, sa, sb)
			if verdict == verdictWorse {
				worse = append(worse, spec.Name+"/"+m.Name)
			}
			bound := fmt.Sprintf("%g%%", m.Bound*100)
			if m.Abs {
				bound = fmt.Sprintf("%g abs", m.Bound)
			}
			ratio := "-"
			if va != 0 && !math.IsNaN(va) && !math.IsNaN(vb) {
				ratio = fmt.Sprintf("%.3f (base %.6g %s)", vb/va, va, m.Unit)
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s",
				spec.Name, m.Name, va, vb, ratio, bound, verdict))
		}
	}
	return rows, worse
}
