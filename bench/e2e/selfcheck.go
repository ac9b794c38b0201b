package main

import (
	"fmt"
	"time"
)

// predicted lists, per workload, the end-to-end metrics the self-check's
// perturbation must push out of their bound, in the worse direction. The
// perturbations add work without adding requests: larger profiles for the
// simulators, CPU burnt per request inside the live serving path.
var predicted = []string{"cpu_us_per_req", "req_per_s", "lat_p50_us"}

// selfCheck is the evidence that the benchmark both repeats and measures:
// per workload, two runs of the same code and seed must agree within every
// bound (A/A), and a perturbed run must leave the bound on every predicted
// metric. It prints workload × metric × {A/A, perturbed, bound, verdict}
// and returns non-zero on any miss.
func selfCheck(names []string, o runOpts, p *prober) int {
	misses := 0
	fmt.Printf("%-14s %-18s %10s %10s %8s  %s\n", "workload", "metric", "A/A", "perturbed", "bound", "verdict")
	for _, name := range names {
		a1, err := runWorkload(name, o, p)
		if err != nil {
			return fatal(err)
		}
		a2, err := runWorkload(name, o, p)
		if err != nil {
			return fatal(err)
		}
		po := o
		po.profScale = profilePerturbation
		po.spin = time.Duration(spinPerturbation * a1.e2e["cpu_us_per_req"] * float64(time.Microsecond))
		pert, err := runWorkload(name, po, p)
		if err != nil {
			return fatal(err)
		}
		for _, r := range []*runResult{a1, a2, pert} {
			if r.failed > 0 {
				fmt.Printf("%s: %d failed operations: %v\n", name, r.failed, r.errs)
				misses++
			}
		}
		for _, m := range endToEnd {
			base := (a1.e2e[m.name] + a2.e2e[m.name]) / 2
			aa := worse(m, a1.e2e[m.name], a2.e2e[m.name])
			pd := worse(m, base, pert.e2e[m.name])
			verdict := "ok"
			if aa > m.bound || -aa > m.bound {
				verdict = "A/A OUTSIDE BOUND"
				misses++
			}
			for _, pm := range predicted {
				if pm != m.name {
					continue
				}
				if pd > m.bound {
					verdict += ", detected"
				} else {
					verdict += ", PERTURBATION MISSED"
					misses++
				}
			}
			fmt.Printf("%-14s %-18s %+9.2f%% %+9.2f%% %7.0f%%  %s\n", name, m.name, 100*aa, 100*pd, 100*m.bound, verdict)
		}
	}
	if misses > 0 {
		fmt.Printf("selfcheck: %d misses\n", misses)
		return 1
	}
	fmt.Println("selfcheck: every A/A inside its bound, every perturbation detected")
	return 0
}

// worse is how much worse v is than base, as a share of base, in the
// metric's own direction (negative = better).
func worse(m metricDef, base, v float64) float64 {
	if m.better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}
