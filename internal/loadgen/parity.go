package loadgen

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/serve"
)

// ParityResult is one world's value-parity measurement: the total captured
// importance of the collapsed cold-start path (neighbour warm-start +
// early stopping, the serving defaults) against a reference trained from
// scratch on the full episode budget.
type ParityResult struct {
	Seed    int64
	Scratch float64 // total captured importance, full-budget reference
	Fast    float64 // total captured importance, collapsed path
	Ratio   float64 // Fast / Scratch (1.0 = no transfer loss)
}

// ValueParity builds one world and replays its evaluation signatures through
// the CRL policy path of two in-process servers — full-budget scratch
// training versus the collapsed cold-start pipeline — and compares the total
// captured importance. The allocation requests force the CRL allocator so
// the comparison exercises the trained DQNs rather than the local process.
func ValueParity(seed int64, scale string, neighborhood int) (ParityResult, error) {
	scnCfg, err := dcta.ScaledScenarioConfig(seed, scale)
	if err != nil {
		return ParityResult{}, err
	}
	scn, err := dcta.NewScenario(scnCfg)
	if err != nil {
		return ParityResult{}, fmt.Errorf("parity scenario seed %d: %w", seed, err)
	}
	wl, err := BuildWorkload(scn)
	if err != nil {
		return ParityResult{}, err
	}
	run := func(collapsed bool) (float64, error) {
		cfg := serve.DefaultConfig()
		cfg.ClusterNeighborhood = neighborhood
		cfg.Seed = seed
		cfg.CRL.Episodes = scnCfg.CRLEpisodes
		if !collapsed {
			cfg.DisableWarmStart = true
			cfg.CRL.StopWindow = -1 // burn the full budget: the reference
		}
		s, err := serve.NewServer(scn.Template, scn.Store, scn.Local, cfg)
		if err != nil {
			return 0, err
		}
		var total float64
		for _, req := range wl.Allocs {
			req.Allocator = "crl"
			resp, err := s.Allocate(context.Background(), req)
			if err != nil {
				return 0, err
			}
			total += resp.PredictedImportance
		}
		return total, nil
	}
	res := ParityResult{Seed: seed, Ratio: 1}
	if res.Scratch, err = run(false); err != nil {
		return res, fmt.Errorf("parity scratch run seed %d: %w", seed, err)
	}
	if res.Fast, err = run(true); err != nil {
		return res, fmt.Errorf("parity collapsed run seed %d: %w", seed, err)
	}
	if res.Scratch > 0 {
		res.Ratio = res.Fast / res.Scratch
	}
	return res, nil
}

// WorstParity measures ValueParity across `worlds` consecutive seeds and
// returns the minimum ratio — the number committed as serve_value_parity.
func WorstParity(seed int64, worlds int, scale string, neighborhood int,
	logf func(format string, args ...any)) (float64, error) {
	worst := 1.0
	for i := 0; i < worlds; i++ {
		r, err := ValueParity(seed+int64(i), scale, neighborhood)
		if err != nil {
			return 0, err
		}
		if logf != nil {
			logf("parity: seed %d  scratch %.4f  collapsed %.4f  ratio %.4f\n",
				r.Seed, r.Scratch, r.Fast, r.Ratio)
		}
		if r.Ratio < worst {
			worst = r.Ratio
		}
	}
	return worst, nil
}
