package main

import (
	"fmt"
	"time"

	splitc "repro"
	"repro/internal/pass"
)

// passLayer maps each pipeline pass to the per-layer timing it counts
// towards: the front end pass by pass, the analyses by the paper's steps,
// and code generation in four groups.
var passLayer = map[string]string{
	"parse":         "source.parse_ms",
	"check":         "sem.check_ms",
	"build-ir":      "ir.build_ms",
	"conflict":      "conflict.build_ms",
	"cycle-detect":  "delay.baseline_ms",
	"sync-analysis": "syncanal.refine_ms",
	"split-phase":   "codegen.lower_ms",
	"cse":           "codegen.cse_ms",
	"licm":          "codegen.cse_ms",
	"global-reuse":  "codegen.cse_ms",
	"hoist":         "codegen.motion_ms",
	"sync-motion":   "codegen.motion_ms",
	"one-way":       "codegen.motion_ms",
	"counter-alloc": "codegen.emit_ms",
	"insert-syncs":  "codegen.emit_ms",
}

// passAlloc maps a pass to the allocation figure of its layer.
func passAlloc(name string) string {
	switch name {
	case "cycle-detect":
		return "delay.alloc_mb"
	case "sync-analysis":
		return "syncanal.alloc_mb"
	case "parse", "check", "build-ir", "conflict":
		return ""
	}
	return "codegen.alloc_mb"
}

// layerSums is the layer values of one traced compile, or of several added
// together: timings from the spans, counts from the layers' public results.
type layerSums struct {
	vals map[string]float64
	// whole is the span around the compile and passes the sum of the pass
	// spans inside it; what the passes leave is pass.unattributed_pct.
	whole, passes time.Duration
	srcBytes      int
}

func (s *layerSums) add(o *layerSums) {
	if s.vals == nil {
		s.vals = map[string]float64{}
	}
	for k, v := range o.vals {
		s.vals[k] += v
	}
	s.whole += o.whole
	s.passes += o.passes
	s.srcBytes += o.srcBytes
}

// per returns the values divided by n — n compiles of one op, or n sampled
// sources — with the two ratios derived from the sums.
func (s *layerSums) per(n float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.vals {
		out[k] = v / n
	}
	out["pass.unattributed_pct"] = float64(s.whole-s.passes) / float64(s.whole) * 100
	out["source.parse_mb_per_s"] = float64(s.srcBytes) / 1e6 / (s.vals["source.parse_ms"] / 1e3)
	return out
}

// tracedCompile is splitc.Compile taken apart: it runs the planned passes
// one by one, each under its own span.
func tracedCompile(tr *tracer, src string, opts splitc.Options, parent, op, tid int) (*pass.Context, *layerSums, error) {
	cfg, err := splitc.PipelineConfig(opts)
	if err != nil {
		return nil, nil, err
	}
	s := &layerSums{vals: map[string]float64{}, srcBytes: len(src)}
	vals := s.vals
	root := tr.begin("compile", parent, op, tid)
	pctx := pass.NewContext(src, cfg)
	for _, p := range pass.Plan(cfg) {
		a0 := allocBytes()
		id := tr.begin(p.Name(), root, op, tid)
		err := p.Run(pctx)
		d := tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, nil, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		s.passes += d
		vals[passLayer[p.Name()]] += ms(d)
		if k := passAlloc(p.Name()); k != "" {
			vals[k] += float64(allocBytes()-a0) / 1e6
		}
	}
	s.whole = tr.end(root)

	vals["ir.accesses"] = float64(len(pctx.Fn.Accesses))
	vals["ir.blocks"] = float64(len(pctx.Fn.Blocks))
	a := pctx.Analysis
	vals["conflict.pairs"] = float64(a.CS.Size())
	vals["delay.baseline_pairs"] = float64(a.Baseline.Size())
	vals["syncanal.d1_pairs"] = float64(a.D1.Size())
	vals["syncanal.r_pairs"] = float64(a.R.Size())
	vals["syncanal.r_classes"] = float64(a.RClasses)
	vals["syncanal.final_pairs"] = float64(a.D.Size())
	vals["syncanal.regions"] = float64(a.Regions)
	vals["syncanal.largest_region"] = float64(a.LargestRegion)
	ts := pctx.Prog().CollectStats()
	vals["codegen.gets"] = float64(ts.Gets)
	vals["codegen.puts"] = float64(ts.Puts)
	vals["codegen.stores"] = float64(ts.Stores)
	vals["codegen.syncs"] = float64(ts.Syncs)
	return pctx, s, nil
}
