package razor

import (
	"fmt"

	"synts/internal/isa"
	"synts/internal/simprof"
	"synts/internal/trace"
)

// Joint multi-stage analysis. The thesis characterises Decode, SimpleALU
// and ComplexALU independently ("the analysis is performed for" each pipe
// stage); in a real Razor pipeline every in-flight instruction can be
// flagged by any stage's shadow latch, so the per-instruction error
// probability composes across stages. This file quantifies that
// composition: JointReplayScoped counts an error whenever *any* stage's
// sensitized delay exceeds its own speculative period, which is exact
// (per-instruction correlation included), and IndependentUpperBound gives
// the p = 1 - prod(1 - p_s) approximation a per-stage analysis would
// predict under independence.

// JointResult reports the composed error behaviour of one window.
type JointResult struct {
	Instructions int
	Errors       int     // instructions flagged by at least one stage
	StageErrors  []int   // per-stage flag counts (an instruction can appear in several)
	Independent  float64 // 1 - prod(1 - p_stage): the independence prediction
}

// ErrorRate returns the exact joint per-instruction error probability.
func (r JointResult) ErrorRate() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Instructions)
}

// JointReplayScoped composes the per-stage delay traces of the *same*
// instruction window at TSR r. All profiles must describe the same window
// (equal N, in program order); each stage uses its own TCrit. With a
// kernel name, stageNames aligned with profiles and the profiler enabled,
// per-stage, per-opcode shadow-latch flag counts land in simprof under
// phase "joint" for that kernel. Cycles and energy are zero — the joint
// study counts flags, it does not model recovery — so these buckets
// appear in the pprof replay_errors view but are dropped from the
// cycle-weighted folded output. Attribution never changes the result.
func JointReplayScoped(kernel string, stageNames []string, profiles []*trace.Profile, r float64) (JointResult, error) {
	if len(profiles) == 0 {
		return JointResult{}, fmt.Errorf("razor: no stage profiles")
	}
	n := len(profiles[0].Codes)
	cuts := make([]uint32, len(profiles))
	for s, p := range profiles {
		if len(p.Codes) != n {
			return JointResult{}, fmt.Errorf("razor: stage windows differ in length: %d vs %d", len(p.Codes), n)
		}
		cuts[s] = p.Cut(r * p.TCrit)
	}
	attr := kernel != "" && simprof.Enabled() && len(stageNames) == len(profiles)
	for _, p := range profiles {
		if len(p.Insts) != n {
			attr = false
		}
	}
	var flags, instrs [][isa.NumOps]int64
	if attr {
		flags = make([][isa.NumOps]int64, len(profiles))
		instrs = make([][isa.NumOps]int64, len(profiles))
	}
	res := JointResult{Instructions: n, StageErrors: make([]int, len(profiles))}
	for i := 0; i < n; i++ {
		flagged := false
		for s, p := range profiles {
			if p.Codes[i] >= cuts[s] {
				res.StageErrors[s]++
				flagged = true
				if attr {
					flags[s][p.Insts[i].Op]++
				}
			}
			if attr {
				instrs[s][p.Insts[i].Op]++
			}
		}
		if flagged {
			res.Errors++
		}
	}
	if attr {
		for s, p := range profiles {
			for op := 0; op < isa.NumOps; op++ {
				if flags[s][op] == 0 {
					continue
				}
				simprof.Record(
					simprof.Key{Kernel: kernel, Core: p.Thread, Interval: p.Interval, Phase: simprof.PhaseJoint, Op: isa.Op(op).String(), Stage: stageNames[s]},
					simprof.Values{Errors: flags[s][op], Instrs: instrs[s][op]},
				)
			}
		}
	}
	// Independence prediction from the same window's marginals.
	ind := 1.0
	for s := range profiles {
		ps := float64(res.StageErrors[s]) / float64(maxIntJ(n, 1))
		ind *= 1 - ps
	}
	res.Independent = 1 - ind
	return res, nil
}

func maxIntJ(a, b int) int {
	if a > b {
		return a
	}
	return b
}
