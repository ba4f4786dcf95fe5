// Command benchmark is this repository's one repeatable benchmark:
// five workloads (three gated, see workload.ungated), five end-to-end
// metrics, a layer ledger and a traced run. See README.md in this
// directory.
//
//	go run ./benchmark run --seed N --out FILE      every workload, end to end
//	go run ./benchmark layers                       the layer ledger
//	go run ./benchmark trace --seed N               every workload, traced
//	go run ./benchmark compare A.json B.json        two sets of runs
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is one run of one workload; the other sub-commands start
// it as a child per workload, so that pools, GC state and peak RSS do
// not leak from one workload into the next. A run of a UDP workload in
// turn starts the workload's copies as children (runCopies).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd := os.Args[1]; {
	case strings.HasPrefix(cmd, "-"):
		err = cmdOne(os.Args[1:])
	case cmd == "run":
		err = cmdRun(os.Args[2:], false)
	case cmd == "trace":
		err = cmdRun(os.Args[2:], true)
	case cmd == "layers":
		err = cmdLayers(os.Args[2:])
	case cmd == "compare":
		err = cmdCompare(os.Args[2:])
	case cmd == "manifest":
		_, err = os.Stdout.Write(manifest())
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run     [--seed N] [--runs K] [--seconds S] [--workload W] [--out FILE]
  benchmark trace   [--seed N] [--seconds S] [--workload W]
  benchmark layers  [--seconds S]
  benchmark compare A.json B.json
  benchmark manifest > BENCHMARK.json
  benchmark --workload W --seed N --seconds S --trace 0|1`)
	os.Exit(2)
}

func numCPU() int { return runtime.GOMAXPROCS(0) }

// Run lengths. A traced run measures a shorter window than an
// end-to-end run, twice (with and without taps), and times the ledger.
const (
	defaultSeconds = 36
	tracedShare    = 0.4 // traced window as a share of --seconds
	quickLoop      = 150 * time.Millisecond
	fullLoop       = time.Second
	outDir         = "benchmark/out"
)

// seedFlag accepts any whole number, negative ones included: a seed only
// has to select inputs.
func seedFlag(fs *flag.FlagSet, usage string) *uint64 {
	seed := uint64(1)
	fs.Func("seed", usage, func(v string) error {
		if u, err := strconv.ParseUint(v, 10, 64); err == nil {
			seed = u
			return nil
		}
		i, err := strconv.ParseInt(v, 10, 64)
		seed = uint64(i)
		return err
	})
	return &seed
}

// cmdOne is one run of one workload. It prints every metric by name
// and, as its last line, the run's JSON object.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := seedFlag(fs, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window in seconds")
	traced := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	ledgerFile := fs.String("ledger", "", "traced run: read the layer ledger from this file instead of timing it")
	instance := fs.Int("instance", -1, "run only this copy of the workload (set by the run that starts the copies)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	window := time.Duration(*seconds * float64(time.Second))
	var o *runOutput
	var err error
	defs := endToEnd
	switch {
	case *traced != 0:
		defs = perLayer()
		o, err = tracedRun(w, *seed, time.Duration(float64(window)*tracedShare), *ledgerFile)
	case *instance >= 0:
		// One copy, started by runCopies: the whole output goes back to it.
		o, err = endToEndRun(w, runConfig{Seed: *seed, Window: window, Instance: *instance, Salt: uint64(os.Getppid())})
		if err != nil {
			return err
		}
		b, _ := json.Marshal(o)
		fmt.Println(string(b))
		return nil
	case w.instances > 1:
		o, err = runCopies(w, args)
	default:
		o, err = endToEndRun(w, runConfig{Seed: *seed, Window: window, Salt: uint64(os.Getpid())})
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, o, defs)
	fmt.Println(o.lastLine())
	return nil
}

// endToEndRun measures one copy of w in this process, without taps.
func endToEndRun(w workload, cfg runConfig) (*runOutput, error) {
	m, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	values := endToEndValues(m)
	for _, d := range endToEnd {
		if values[d.Name] <= 0 {
			return nil, fmt.Errorf("%s is %v: the window is too short to measure it", d.Name, values[d.Name])
		}
	}
	return toOutput(w, cfg.Seed, []*measurement{m}, endToEnd, values), nil
}

// runCopies measures w.instances copies of w side by side, each in a
// child process started with the same arguments plus its number, and
// returns their mean. One copy of a UDP workload spends nearly all its
// time waiting for ticks; copies in separate processes do not disturb
// each other (inside one process they do: flows of different sessions
// fall into a slower mode), and their mean is steadier than one copy.
func runCopies(w workload, args []string) (*runOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copies := make([]*runOutput, w.instances)
	errs := make([]error, w.instances)
	var wg sync.WaitGroup
	for i := range copies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.CommandContext(ctx, self, append(args[:len(args):len(args)], "--instance", fmt.Sprint(i))...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err == nil {
				copies[i], err = parseLastLine(out)
			}
			if err != nil {
				errs[i] = fmt.Errorf("copy %d: %w", i, err)
				cancel() // the others are worth nothing without it
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return meanOf(copies), nil
}

// parseLastLine reads the JSON object a run prints as its last line.
func parseLastLine(stdout []byte) (*runOutput, error) {
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	var o runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
		return nil, fmt.Errorf("no result on the last line: %w", err)
	}
	return &o, nil
}

// tracedRun measures w twice over the same window — without taps, then
// with — and reports the layer metrics.
func tracedRun(w workload, seed uint64, window time.Duration, ledgerFile string) (*runOutput, error) {
	if window < time.Second {
		window = time.Second
	}
	var ledger map[string]float64
	if ledgerFile != "" {
		b, err := os.ReadFile(ledgerFile)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &ledger); err != nil {
			return nil, fmt.Errorf("%s: %w", ledgerFile, err)
		}
	} else {
		ledger = runLedger(quickLoop)
	}
	cfg := runConfig{Seed: seed, Window: window, Salt: uint64(os.Getpid())}
	untraced, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	cfg.Tracer = t
	traced, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	recs := t.join()
	values := tracedValues(w, traced, untraced, t, recs, ledger)
	path, err := writeTraceFile(outDir, w, seed, recs, values)
	if err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Printf("spans: %s (%d records)\n", path, len(recs))
	// Operations of both runs count: both have to be clean for the traced
	// figures to mean anything.
	return toOutput(w, seed, []*measurement{traced, untraced}, perLayer(), values), nil
}

// resultsFile is what `run --out` writes and `compare` reads: a set of
// runs of the same code.
type resultsFile struct {
	Version int          `json:"version"`
	Seconds float64      `json:"seconds"`
	Runs    []*runOutput `json:"runs"`
}

// cmdRun runs every workload (or one) in a child process each, end to
// end or traced, and prints every metric by name with its unit.
func cmdRun(args []string, traced bool) error {
	fs := flag.NewFlagSet("benchmark run", flag.ExitOnError)
	seed := seedFlag(fs, "seed of the first run")
	runs := fs.Int("runs", 1, "runs per workload; run i uses seed+i")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window in seconds")
	only := fs.String("workload", "", "run only this workload")
	out := fs.String("out", "", "write the runs to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var extra []string
	if traced {
		// One full-length ledger for all workloads, handed to the children.
		fmt.Println("timing the layer ledger ...")
		ledger := runLedger(fullLoop)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, "ledger.json")
		b, _ := json.MarshalIndent(ledger, "", "  ")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		extra = []string{"--trace", "1", "--ledger", path}
	}
	file := resultsFile{Version: 1, Seconds: *seconds}
	failed := false
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			if *only != "" && w.Name != *only {
				continue
			}
			args := append([]string{
				"--workload", w.Name,
				"--seed", fmt.Sprint(*seed + uint64(i)),
				"--seconds", fmt.Sprint(*seconds),
			}, extra...)
			o, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			o.Workload, o.Seed = w.Name, *seed+uint64(i)
			failed = failed || !o.Correct
			file.Runs = append(file.Runs, o)
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a workload failed operations or delivered wrong bytes")
	}
	return nil
}

// runChild runs one workload in a fresh process, passes on the metrics
// it prints and parses the JSON object on the last line of its output.
func runChild(self string, args []string) (*runOutput, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndexByte(bytes.TrimRight(stdout, "\n"), '\n'); i >= 0 {
		os.Stdout.Write(stdout[:i+1])
	}
	return parseLastLine(stdout)
}

// cmdLayers prints the layer ledger.
func cmdLayers(args []string) error {
	fs := flag.NewFlagSet("benchmark layers", flag.ExitOnError)
	seconds := fs.Float64("seconds", fullLoop.Seconds(), "seconds per loop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ledger := runLedger(time.Duration(*seconds * float64(time.Second)))
	for _, d := range ledgerMetrics {
		fmt.Printf("  %-38s %14.4f %s\n", d.Name, ledger[d.Name], d.Unit)
	}
	return nil
}
