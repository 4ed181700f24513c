// Command decompose reads a graph or hypergraph, runs one of the library's
// decomposition algorithms, and reports the width, bounds and (optionally)
// the decomposition tree.
//
// Usage:
//
//	decompose -algo bb-ghw -in instance.hg -format hg
//	decompose -algo astar-tw -gen queen6_6
//	decompose -algo ga-ghw -gen grid2d_20 -timeout 30s -show
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hypertree/internal/bench"
	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

func main() {
	var (
		inPath  = flag.String("in", "", "input file (alternative to -gen)")
		format  = flag.String("format", "hg", "input format: hg | dimacs | gr | edgelist")
		gen     = flag.String("gen", "", "named benchmark instance (see -list)")
		list    = flag.Bool("list", false, "list the named benchmark instances and exit")
		algo    = flag.String("algo", "bb-ghw", fmt.Sprintf("algorithm: %v", core.Algorithms))
		timeout = flag.Duration("timeout", time.Minute, "wall-clock budget (0 = unlimited)")
		nodes   = flag.Int64("nodes", 0, "search-node budget (0 = unlimited)")
		seed    = flag.Int64("seed", 1, "random seed for heuristic tie-breaking")
		show    = flag.Bool("show", false, "print the decomposition tree")

		workers = flag.Int("workers", 0, "worker count for the parallel engines: parallel BB, parallel GA evaluation (0 = serial; counts above GOMAXPROCS clamp to it)")
		dotPath = flag.String("dot", "", "write the decomposition as Graphviz DOT to this file")
		tdPath  = flag.String("td", "", "write the tree decomposition in PACE .td format to this file")

		tracePath  = flag.String("trace", "", "write the run's instrumentation events as JSONL to this file")
		stats      = flag.Bool("stats", false, "print the run's aggregated statistics (anytime-width timeline, effort, cache traffic)")
		progress   = flag.Duration("progress", 0, "report run progress to stderr at this interval (0 = off)")
		traceCheck = flag.String("trace-check", "", "validate a JSONL trace file and exit (no run)")
		strict     = flag.Bool("strict", false, "with -trace-check: also reject unknown event kinds and non-monotonic timestamps (single-threaded traces only)")
	)
	flag.Parse()

	if *traceCheck != "" {
		validate := obs.ValidateTraceFile
		if *strict {
			validate = obs.ValidateTraceFileStrict
		}
		sum, err := validate(*traceCheck)
		if err != nil {
			fatal(fmt.Errorf("trace %s: %w", *traceCheck, err))
		}
		unknown := ""
		if sum.Unknown > 0 {
			unknown = fmt.Sprintf(", %d unknown kinds", sum.Unknown)
		}
		fmt.Printf("trace %s: valid (%d events, %d runs, %d improvements, %d checkpoints%s, algos %v)\n",
			*traceCheck, sum.Events, sum.Starts, sum.Improvements, sum.Checkpoints, unknown, sum.Algos)
		return
	}

	if *list {
		fmt.Println("graphs:")
		fmt.Println("  " + strings.Join(bench.GraphNames(), " "))
		fmt.Println("hypergraphs:")
		fmt.Println("  " + strings.Join(bench.HyperNames(), " "))
		return
	}

	// SIGINT/SIGTERM cancel the run's context; the algorithms stop at their
	// next checkpoint and the best decomposition found so far is still
	// printed, with its stop reason. A second signal force-exits (code 2)
	// without waiting for a checkpoint — signal.NotifyContext alone cannot
	// do that, so the channel is handled by hand. Installed before input
	// loading so a signal at any point after startup is caught.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "decompose: %v: canceling run (signal again to force exit)\n", sig)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "decompose: second signal, forcing exit")
		os.Exit(2)
	}()

	alg, err := core.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	// One switch for every parallel engine. Negative counts are an error;
	// counts beyond the machine clamp to GOMAXPROCS — more workers than CPUs
	// only adds contention.
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	}
	nw := core.ClampWorkers(*workers)
	h, err := loadInput(*inPath, *format, *gen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %s\n", h)

	var recorders []obs.Recorder
	var trace *obs.JSONLWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		trace = obs.NewJSONLWriter(f)
		recorders = append(recorders, trace)
	}
	var prog *obs.Progress
	if *progress > 0 {
		prog = obs.NewProgress(os.Stderr, *progress)
		recorders = append(recorders, prog)
	}

	d, err := core.Decompose(h, core.Options{
		Algorithm: alg,
		Ctx:       ctx,
		Timeout:   *timeout,
		MaxNodes:  *nodes,
		Seed:      *seed,
		Workers:   nw,
		Recorder:  obs.Tee(recorders...),
	})
	if prog != nil {
		// A run cut down by a contained panic never emits algo_stop; flush
		// the reporter's last known state so the terminal line still lands.
		prog.Finish()
	}
	if trace != nil {
		if cerr := trace.Close(); cerr != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *tracePath, cerr))
		}
		if err == nil {
			fmt.Println("wrote", *tracePath)
		}
	}
	if err != nil {
		var pe *budget.PanicError
		if errors.As(err, &pe) {
			fatal(fmt.Errorf("algorithm panicked (contained): %w", pe))
		}
		fatal(err)
	}

	kind := "ghw"
	if alg.IsTreewidth() {
		kind = "treewidth"
	}
	if alg == core.AlgHW {
		kind = "hypertree width"
	}
	status := "upper bound"
	if d.Exact {
		status = "exact"
	}
	fmt.Printf("%s (%s): %d   lower bound: %d\n", kind, status, d.Width, d.LowerBound)
	fmt.Printf("effort: %d nodes, %d evaluations, %v\n", d.Nodes, d.Evaluations, d.Elapsed.Round(time.Millisecond))
	if d.Interrupted {
		fmt.Printf("run interrupted (%s): result is the best found within the budget\n", d.Stop)
	}
	if *stats && d.Stats != nil {
		fmt.Print(d.Stats.Summary())
	}

	if err := d.TD.Validate(h); err != nil {
		fatal(fmt.Errorf("internal error: invalid tree decomposition: %w", err))
	}
	if d.GHD != nil {
		if err := d.GHD.Validate(h); err != nil {
			fatal(fmt.Errorf("internal error: invalid GHD: %w", err))
		}
		fmt.Println("decomposition validated (tree decomposition + GHD conditions)")
	} else {
		fmt.Println("decomposition validated (tree decomposition conditions)")
	}
	if *show {
		if d.GHD != nil {
			printGHD(h, d.GHD)
		} else {
			printTD(h, d.TD)
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if d.GHD != nil {
			err = d.GHD.WriteDOT(f, h)
		} else {
			err = d.TD.WriteDOT(f, h)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *dotPath)
	}
	if *tdPath != "" {
		f, err := os.Create(*tdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := d.TD.WriteTd(f, h.N()); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *tdPath)
	}
}

func loadInput(inPath, format, gen string) (*hypergraph.Hypergraph, error) {
	switch {
	case gen != "":
		if gi, err := bench.Graph(gen); err == nil {
			return hypergraph.FromGraph(gi.Build()), nil
		}
		hi, err := bench.Hyper(gen)
		if err != nil {
			return nil, err
		}
		return hi.Build(), nil
	case inPath != "":
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "hg":
			return hypergraph.ParseHG(f)
		case "dimacs":
			g, err := hypergraph.ParseDIMACS(f)
			if err != nil {
				return nil, err
			}
			return hypergraph.FromGraph(g), nil
		case "gr":
			g, err := hypergraph.ParseGr(f)
			if err != nil {
				return nil, err
			}
			return hypergraph.FromGraph(g), nil
		case "edgelist":
			return hypergraph.ParseEdgeList(f)
		default:
			return nil, fmt.Errorf("unknown format %q", format)
		}
	}
	return nil, fmt.Errorf("provide -in FILE or -gen NAME (or -list)")
}

func printTD(h *hypergraph.Hypergraph, td *decomp.TreeDecomposition) {
	fmt.Printf("tree decomposition: %d nodes, width %d\n", len(td.Bags), td.Width())
	printTree(td.Parent, td.Root, func(i int) string {
		return "{" + joinNames(h, td.Bags[i]) + "}"
	})
}

func printGHD(h *hypergraph.Hypergraph, g *decomp.GHD) {
	fmt.Printf("generalized hypertree decomposition: %d nodes, width %d\n", len(g.Bags), g.Width())
	printTree(g.Parent, g.Root, func(i int) string {
		var edges []string
		for _, e := range g.Lambdas[i] {
			edges = append(edges, h.EdgeName(e))
		}
		return "χ={" + joinNames(h, g.Bags[i]) + "}  λ={" + strings.Join(edges, ",") + "}"
	})
}

func printTree(parent []int, root int, label func(int) string) {
	children := make([][]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	var rec func(node, depth int)
	rec = func(node, depth int) {
		fmt.Printf("%s%s\n", strings.Repeat("  ", depth), label(node))
		sort.Ints(children[node])
		for _, c := range children[node] {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
}

func joinNames(h *hypergraph.Hypergraph, vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = h.VertexName(v)
	}
	return strings.Join(parts, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "decompose:", err)
	os.Exit(1)
}
