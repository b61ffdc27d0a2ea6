package telemetry

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Instruments bundles the armed observability handles a run threads
// through its pipeline. Fields are nil when the corresponding instrument
// is off — every consumer degrades to no-ops through the package's
// nil-safe method sets.
type Instruments struct {
	Tracer   *Tracer
	Registry *Registry
	// Recorder is the always-on flight recorder (never nil after Setup).
	Recorder *Recorder
	// Log is the structured logger feeding Recorder (never nil after
	// Setup); scope it per component with Log.Scope.
	Log *Logger
}

// CLI bundles the observability flag values shared by the rms
// command-line tools (-trace, -metrics, -pprof, -cpuprofile, -listen,
// -log, -logjson). The zero value arms the minimum: Setup then returns
// nil tracer and registry — free no-ops throughout the pipeline — plus
// the always-on flight recorder and its logger.
type CLI struct {
	TracePath  string    // -trace: Chrome trace-event output file
	Metrics    bool      // -metrics: print the registry at exit
	PprofAddr  string    // -pprof: serve net/http/pprof on this address
	CPUProfile string    // -cpuprofile: write a CPU profile to this file
	Out        io.Writer // span summary + metrics destination (default os.Stdout)

	// Listen is the -listen debug-server address. Setup itself does not
	// start the server (internal/introspect owns that, and imports this
	// package); it arms a live Registry so there is something to scrape.
	Listen string
	// LogLevel, when non-empty, echoes events at or above this level
	// ("debug", "info", "warn", "error") to stderr as structured lines.
	// The flight recorder receives every level regardless.
	LogLevel string
	// LogJSON switches the echoed log lines from text to JSON.
	LogJSON bool
}

// Setup arms the configured instruments. The tracer is non-nil only
// with -trace; the registry with -metrics or -listen (a debug server
// needs something to scrape); the flight recorder and logger always.
// Log lines, the recorder's post-mortem auto-dump and its SIGQUIT dump
// go to stderr, since stdout often carries CSV or JSON payloads. The
// returned finish function writes the trace file, prints the span
// summary and metrics to c.Out, and stops the CPU profile, pprof server
// and signal handler. finish must be called exactly once, at the end of
// the run.
func (c CLI) Setup() (*Instruments, func() error, error) {
	out := c.Out
	if out == nil {
		out = os.Stdout
	}
	ins := &Instruments{Recorder: NewRecorder(0)}
	ins.Recorder.ArmAutoDump(os.Stderr)
	ins.Log = NewLogger(ins.Recorder)
	if c.LogLevel != "" {
		min, err := ParseLevel(c.LogLevel)
		if err != nil {
			return nil, nil, err
		}
		ins.Log = ins.Log.WithSink(os.Stderr, min, c.LogJSON)
	}
	if c.TracePath != "" {
		ins.Tracer = NewTracer()
	}
	if c.Metrics || c.Listen != "" {
		ins.Registry = NewRegistry()
	}
	var stopProfile func() error
	var stopPprof func()
	if c.PprofAddr != "" {
		stop, err := ServePprof(c.PprofAddr)
		if err != nil {
			return nil, nil, err
		}
		stopPprof = stop
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", c.PprofAddr)
	}
	if c.CPUProfile != "" {
		stop, err := StartCPUProfile(c.CPUProfile)
		if err != nil {
			if stopPprof != nil {
				stopPprof()
			}
			return nil, nil, err
		}
		stopProfile = stop
	}
	quit := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for {
			select {
			case <-quit:
				fmt.Fprintln(os.Stderr, "SIGQUIT: dumping flight recorder")
				ins.Recorder.WriteText(os.Stderr)
			case <-done:
				return
			}
		}
	}()
	finish := func() error {
		signal.Stop(quit)
		close(done)
		if stopPprof != nil {
			stopPprof()
		}
		if stopProfile != nil {
			if err := stopProfile(); err != nil {
				return err
			}
		}
		if ins.Tracer != nil {
			f, err := os.Create(c.TracePath)
			if err != nil {
				return err
			}
			if err := ins.Tracer.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			ins.Tracer.WriteSummary(out)
		}
		if c.Metrics && ins.Registry != nil {
			fmt.Fprintln(out, "== metrics")
			ins.Registry.WriteText(out)
		}
		return nil
	}
	return ins, finish, nil
}
