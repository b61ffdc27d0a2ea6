// Fault-tolerance overhead measurement: the same Table 2-style parallel
// objective, run clean and under injected faults, reporting the modeled
// extra solver work and the recovery interventions each failure mode
// costs. This quantifies the price of the failure path
// (docs/fault-tolerance.md) the way Table 2 quantifies load balancing.
package bench

import (
	"fmt"
	"strings"
	"time"

	"rms/internal/budget"
	"rms/internal/core"
	"rms/internal/estimator"
	"rms/internal/faults"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// FaultsRow is one failure scenario's cost.
type FaultsRow struct {
	Scenario string
	// ModeledOps is the deterministic solver-work total across the run's
	// objective calls (critical path over ranks, as in Table 2).
	ModeledOps float64
	// OverheadPct is the modeled-ops overhead over the clean run.
	OverheadPct float64
	// WallSeconds is this host's wall-clock time, for reference.
	WallSeconds float64
	// BudgetChecks counts the cancellation polls the run performed;
	// BudgetOvhPct bounds their cost as a percentage of modeled solver
	// ops. Each check is a single atomic load — far cheaper than one op
	// unit — so the true overhead sits well below this bound.
	BudgetChecks int64
	BudgetOvhPct float64
	// RecEvents counts the flight-recorder events the scenario emitted
	// (the recorder is armed but unscraped, as in a production run);
	// RecOvhPct bounds their cost the same way BudgetOvhPct does — events
	// per modeled solver op, in percent. One event is one small
	// allocation plus one atomic store, far below one op unit, so the
	// enabled-but-idle recorder overhead sits well under this bound.
	RecEvents uint64
	RecOvhPct float64
	// Recovery counts the failure path's interventions.
	Recovery estimator.RecoveryStats
	// Degrade counts the graceful-degradation ladder's activations
	// (sparse→dense).
	Degrade estimator.DegradeStats
}

// FaultsConfig shapes the fault-tolerance overhead run.
type FaultsConfig struct {
	// Variants sizes the kinetic model (default 16).
	Variants int
	// Files and Records size the corpus (defaults 16 and 200).
	Files   int
	Records int
	// Calls is the number of objective evaluations per scenario
	// (default 4).
	Calls int
	// Ranks is the simulated node count (default 4).
	Ranks int
	// Rate is the per-file-solve transient failure probability of the
	// flaky scenario (default 0.05).
	Rate float64
	// Seed drives the deterministic injection plans (default 1).
	Seed int64
	// Metrics, when non-nil, receives the estimator/solver/fault
	// telemetry of every scenario (accumulated across the run).
	Metrics *telemetry.Registry
}

// FaultTolerance measures the parallel objective under four scenarios:
// failure-free, transient per-file solver failures at the configured
// rate, one rank crash, and one rank stall caught by the watchdog.
func FaultTolerance(cfg FaultsConfig) ([]FaultsRow, error) {
	if cfg.Variants == 0 {
		cfg.Variants = 16
	}
	if cfg.Files == 0 {
		cfg.Files = 16
	}
	if cfg.Records == 0 {
		cfg.Records = 200
	}
	if cfg.Calls == 0 {
		cfg.Calls = 4
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 4
	}
	if cfg.Rate == 0 {
		cfg.Rate = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	net, err := vulcan.Network(cfg.Variants)
	if err != nil {
		return nil, err
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		return nil, err
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return nil, err
	}
	model := res.Model(vulcan.CrosslinkProperty(res.System), ode.Options{RTol: 1e-7, ATol: 1e-10})
	files := syntheticFiles(cfg.Files, cfg.Records)

	measure := func(scenario string, plan *faults.Plan, watchdog time.Duration) (FaultsRow, error) {
		// Every scenario runs with a (never-tripping) budget attached, so
		// the table shows what the cancellation machinery costs when armed.
		bud := budget.New()
		defer bud.Cancel("bench scenario done")
		// A per-scenario flight recorder with a scoped logger threaded
		// through every instrumented layer: the always-on configuration,
		// with nobody scraping — what a production run pays.
		rec := telemetry.NewRecorder(telemetry.DefaultRecorderSize)
		log := telemetry.NewLogger(rec)
		bud = bud.WithLogger(log.Scope("budget"))
		ecfg := estimator.Config{
			Ranks: cfg.Ranks, Policy: sched.PolicyLPT, Watchdog: watchdog,
			Budget: bud, Metrics: cfg.Metrics, Log: log,
		}
		if plan != nil {
			ecfg.Faults = plan.WithLogger(log.Scope("faults"))
		}
		est, err := estimator.New(model, files, ecfg)
		if err != nil {
			return FaultsRow{}, err
		}
		defer est.Close()
		resid := make([]float64, est.ResidualDim())
		for call := 0; call < cfg.Calls; call++ {
			if err := est.Objective(k, resid); err != nil {
				return FaultsRow{}, fmt.Errorf("%s: %w", scenario, err)
			}
		}
		row := FaultsRow{
			Scenario:     scenario,
			ModeledOps:   est.ModeledOps(),
			WallSeconds:  est.WallSeconds(),
			BudgetChecks: bud.Checks(),
			RecEvents:    rec.Total(),
			Recovery:     est.Recovery(),
			Degrade:      est.Degrade(),
		}
		if row.ModeledOps > 0 {
			row.BudgetOvhPct = 100 * float64(row.BudgetChecks) / row.ModeledOps
			row.RecOvhPct = 100 * float64(row.RecEvents) / row.ModeledOps
		}
		return row, nil
	}

	scenarios := []struct {
		name     string
		plan     *faults.Plan
		watchdog time.Duration
	}{
		{"clean", nil, 0},
		{fmt.Sprintf("flaky solves (rate %g)", cfg.Rate),
			faults.NewPlan(cfg.Seed).FailRate(cfg.Rate), 0},
		// One rank dies at its third collective — during objective call 1,
		// with call 0's balanced assignment already in place.
		{"rank crash", faults.NewPlan(cfg.Seed).CrashRank(cfg.Ranks-1, 2), 0},
		// One rank wedges instead of dying; a short watchdog (generous
		// against this benchmark's sub-second calls) converts the hang
		// into a diagnosed failure and the survivors re-run.
		{"rank stall + watchdog", faults.NewPlan(cfg.Seed).StallRank(cfg.Ranks-1, 2),
			500 * time.Millisecond},
	}
	var rows []FaultsRow
	for _, sc := range scenarios {
		row, err := measure(sc.name, sc.plan, sc.watchdog)
		if err != nil {
			return nil, err
		}
		if len(rows) > 0 {
			base := rows[0].ModeledOps
			row.OverheadPct = 100 * (row.ModeledOps - base) / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// formatDegrade renders the degradation ladder's activations compactly.
func formatDegrade(d estimator.DegradeStats) string {
	if d.SparseToDense == 0 {
		return "none"
	}
	return fmt.Sprintf("sparse %d", d.SparseToDense)
}

// FormatFaults renders the fault-tolerance overhead table.
func FormatFaults(rows []FaultsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-13s %-10s %-9s %-10s %-14s %-30s %-16s"+NL,
		"scenario", "modeled ops", "overhead", "wall", "bdgt ovh", "rec ovh", "recovery", "degrade")
	for _, r := range rows {
		rec := r.Recovery
		recCol := fmt.Sprintf("retry %d, penal %d, rank %d, wdog %d",
			rec.Retries, rec.PenalizedFiles, rec.RankFailures, rec.WatchdogTrips)
		ovCol := "-"
		if r.Scenario != "clean" {
			ovCol = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%-28s %-13.3g %-10s %-9s %-10s %-14s %-30s %-16s"+NL,
			r.Scenario, r.ModeledOps, ovCol,
			fmt.Sprintf("%.2fs", r.WallSeconds),
			fmt.Sprintf("<%.3f%%", r.BudgetOvhPct),
			fmt.Sprintf("%d <%.4f%%", r.RecEvents, r.RecOvhPct),
			recCol, formatDegrade(r.Degrade))
	}
	b.WriteString("overhead = modeled solver ops vs the clean run; retries and re-runs on" + NL)
	b.WriteString("shrunk communicators are counted work (see docs/fault-tolerance.md)." + NL)
	b.WriteString("bdgt ovh bounds the cancellation polls' cost (checks per modeled op," + NL)
	b.WriteString("each a single atomic load); rec ovh bounds the always-on flight" + NL)
	b.WriteString("recorder the same way (events per modeled op, each one allocation plus" + NL)
	b.WriteString("one atomic store — docs/observability.md); degrade counts the" + NL)
	b.WriteString("sparse→dense ladder's activations (docs/checkpointing.md)" + NL)
	return b.String()
}
