// nexus-shell is an interactive REPL for the nexus surface language.
// It can run self-contained (in-process engines with demo data) or attach
// to remote nexus servers.
//
//	nexus-shell -demo                           # local engines + demo data
//	nexus-shell -connect 127.0.0.1:7701,127.0.0.1:7702
//
// Shell commands:
//
//	\datasets            list datasets across providers (durable vs memory)
//	\providers           list providers
//	\explain <query>     show the optimized plan and fragment assignment
//	\explain analyze <query>
//	                     execute the query with a per-operator trace and
//	                     show calls, rows and wall time per operator
//	\explain analyze stream <ds> <timecol> <size> [key...]
//	                     same for a windowed streaming query over the
//	                     dataset (both stage plans, trace accumulated
//	                     across micro-batches)
//	\subscribe <ds> <timecol> <size> [key...]
//	                     live windowed subscription hosted on the
//	                     dataset's provider (federated streaming)
//	\stats [host:port]   fetch and print /debug/stats from a server's
//	                     metrics sidecar (default from -metrics)
//	\trace on|off        trace subsequent queries end-to-end (each prints
//	                     its trace id; -trace also traces the connect)
//	\trace [host:port] [id]
//	                     fetch /debug/traces from a metrics sidecar,
//	                     optionally filtered to one trace id
//	\ops [host:port]     fetch /debug/ops — live in-flight queries and
//	                     subscriptions on that server
//	\open <dir>          attach a durable data directory as a provider
//	\save <dataset>      persist a dataset into the opened directory
//	\mode direct|routed  switch intermediate shipping
//	\quit                exit
//
// Anything else is parsed as a surface-language query, e.g.:
//
//	load sales | where qty > 3 | group by region agg rev = sum(price*qty)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"nexus"
)

func main() {
	demo := flag.Bool("demo", false, "create local engines and load demo data")
	connect := flag.String("connect", "", "comma-separated server addresses to attach")
	metrics := flag.String("metrics", "", "default metrics sidecar address for \\stats (host:port)")
	tenant := flag.String("tenant", "", "tenant token sent at connect for server-side admission control")
	traceFlag := flag.Bool("trace", false, "trace connects and queries end-to-end from the start (same as \\trace on, plus traced dial handshakes)")
	flag.Parse()

	s := nexus.NewSession()
	if *connect != "" {
		for _, addr := range strings.Split(*connect, ",") {
			name, err := s.Connect(strings.TrimSpace(addr), nexus.ConnectOptions{Tenant: *tenant, Trace: *traceFlag})
			if err != nil {
				fmt.Fprintf(os.Stderr, "connect %s: %v\n", addr, err)
				os.Exit(1)
			}
			fmt.Printf("connected to %s (%s)\n", addr, name)
		}
	}
	if *connect == "" || *demo {
		for _, k := range []nexus.EngineKind{nexus.Relational, nexus.Array, nexus.LinAlg, nexus.Graph} {
			if _, err := s.AddEngine(k, ""); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if err := s.Demo(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("local engines ready (relational, array, linalg, graph) with demo data")
	}
	fmt.Println(`nexus shell — surface-language queries, \datasets, \explain <q>, \open <dir>, \save <ds>, \quit`)

	durableProvider := "" // provider created by the last \open
	tracing := *traceFlag // \trace on|off: run queries with end-to-end tracing
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("nexus> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\quit` || line == `\q`:
			return
		case line == `\providers`:
			for _, p := range s.Providers() {
				fmt.Println(" ", p)
			}
		case line == `\datasets`:
			printDatasets(s)
		case strings.HasPrefix(line, `\mode`):
			switch strings.TrimSpace(strings.TrimPrefix(line, `\mode`)) {
			case "direct":
				s.SetShipMode(nexus.Direct)
				fmt.Println("shipping: direct (server→server)")
			case "routed":
				s.SetShipMode(nexus.Routed)
				fmt.Println("shipping: routed (via client)")
			default:
				fmt.Println("usage: \\mode direct|routed")
			}
		case strings.HasPrefix(line, `\subscribe`):
			runSubscribe(s, strings.Fields(strings.TrimSpace(strings.TrimPrefix(line, `\subscribe`))))
		case strings.HasPrefix(line, `\open`):
			dir := strings.TrimSpace(strings.TrimPrefix(line, `\open`))
			if dir == "" {
				fmt.Println("usage: \\open <dir>")
				continue
			}
			name, err := s.Open(dir)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			durableProvider = name
			fmt.Printf("durable provider %q attached (data dir %s); \\save <dataset> persists into it\n", name, dir)
		case strings.HasPrefix(line, `\save`):
			ds := strings.TrimSpace(strings.TrimPrefix(line, `\save`))
			if ds == "" {
				fmt.Println("usage: \\save <dataset>")
				continue
			}
			if durableProvider == "" {
				fmt.Println("no durable directory open; \\open <dir> first")
				continue
			}
			if err := s.Persist(durableProvider, ds); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("dataset %q persisted on %q\n", ds, durableProvider)
		case strings.HasPrefix(line, `\explain analyze`):
			src := strings.TrimSpace(strings.TrimPrefix(line, `\explain analyze`))
			if rest, ok := strings.CutPrefix(src, "stream "); ok {
				runStreamAnalyze(s, strings.Fields(rest))
				continue
			}
			out, err := s.Query(src).ExplainAnalyze()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, `\explain`):
			src := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
			out, err := s.Query(src).Explain()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(out)
		case strings.HasPrefix(line, `\stats`):
			addr := strings.TrimSpace(strings.TrimPrefix(line, `\stats`))
			if addr == "" {
				addr = *metrics
			}
			fetchSidecar(addr, "/debug/stats", `\stats`)
		case strings.HasPrefix(line, `\trace`):
			args := strings.Fields(strings.TrimSpace(strings.TrimPrefix(line, `\trace`)))
			runTrace(args, &tracing, *metrics)
		case strings.HasPrefix(line, `\ops`):
			addr := strings.TrimSpace(strings.TrimPrefix(line, `\ops`))
			if addr == "" {
				addr = *metrics
			}
			fetchSidecar(addr, "/debug/ops", `\ops`)
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown command; try \\datasets, \\providers, \\explain [analyze] <q>, \\subscribe, \\stats, \\trace, \\ops, \\open <dir>, \\save <ds>, \\mode, \\quit")
		default:
			t0 := time.Now()
			q := s.Query(line)
			if tracing {
				q = q.Trace()
			}
			res, m, err := q.CollectWithMetrics()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(res.Format(25))
			fmt.Printf("(%d rows, %v, %d fragment(s))\n", res.NumRows(), time.Since(t0).Round(time.Microsecond), m.Fragments)
			if id := m.TraceID(); id != "" {
				fmt.Printf("(trace %s — \\trace %s %s on any server the query touched)\n", id, "<host:port>", id)
			}
		}
	}
}

// runSubscribe hosts a federated stream subscription from the shell:
// the named dataset replays on whichever provider holds it, windowed
// per-key, with results streaming back over the wire.
//
//	\subscribe <dataset> <timecol> <windowsize> [key...]
func runSubscribe(s *nexus.Session, args []string) {
	if len(args) < 3 {
		fmt.Println("usage: \\subscribe <dataset> <timecol> <windowsize> [key...]")
		return
	}
	size, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil || size <= 0 {
		fmt.Println("window size must be a positive integer")
		return
	}
	var provider string
	for _, ds := range s.Datasets() {
		if ds.Name == args[0] {
			provider = ds.Provider
			break
		}
	}
	if provider == "" {
		fmt.Printf("no provider hosts dataset %q\n", args[0])
		return
	}
	q := s.StreamScan(args[0], args[1]).
		Window(nexus.Tumbling(size)).
		GroupBy(args[3:]...).
		Agg(nexus.Count("n"))
	t0 := time.Now()
	windows := 0
	stats, err := q.SubscribeRemote(context.Background(), []string{provider}, func(t *nexus.Table) error {
		windows++
		if windows <= 5 {
			fmt.Print(t.Format(10))
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("(%d windows from %s, %d events, %d late, %v)\n",
		windows, provider, stats.Events, stats.Late, time.Since(t0).Round(time.Microsecond))
}

// runStreamAnalyze traces a windowed streaming query over a stored
// dataset in-process: the replay runs to completion with a per-operator
// trace, and both stage plans print with calls/rows/time annotations.
//
//	\explain analyze stream <dataset> <timecol> <windowsize> [key...]
func runStreamAnalyze(s *nexus.Session, args []string) {
	if len(args) < 3 {
		fmt.Println("usage: \\explain analyze stream <dataset> <timecol> <windowsize> [key...]")
		return
	}
	size, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil || size <= 0 {
		fmt.Println("window size must be a positive integer")
		return
	}
	out, err := s.StreamScan(args[0], args[1]).
		Window(nexus.Tumbling(size)).
		GroupBy(args[3:]...).
		Agg(nexus.Count("n")).
		ExplainAnalyze(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(out)
}

// runTrace implements \trace: "on"/"off" toggles query tracing in this
// shell; anything else is a sidecar address (default -metrics) plus an
// optional trace id, fetched from that server's /debug/traces.
func runTrace(args []string, tracing *bool, defaultAddr string) {
	if len(args) == 1 && (args[0] == "on" || args[0] == "off") {
		*tracing = args[0] == "on"
		if *tracing {
			fmt.Println("tracing: on (each query prints its trace id)")
		} else {
			fmt.Println("tracing: off")
		}
		return
	}
	addr, id := defaultAddr, ""
	switch len(args) {
	case 0:
	case 1:
		// A lone 32-hex-char argument is a trace id for the default
		// sidecar; anything else is an address.
		if len(args[0]) == 32 && !strings.Contains(args[0], ":") {
			id = args[0]
		} else {
			addr = args[0]
		}
	case 2:
		addr, id = args[0], args[1]
	default:
		fmt.Println("usage: \\trace on|off  or  \\trace [host:port] [traceid]")
		return
	}
	path := "/debug/traces"
	if id != "" {
		path += "?trace=" + id
	}
	fetchSidecar(addr, path, `\trace`)
}

// fetchSidecar GETs a path from a metrics sidecar and prints the body.
func fetchSidecar(addr, path, cmd string) {
	if addr == "" {
		fmt.Printf("usage: %s <host:port> (or start the shell with -metrics)\n", cmd)
		return
	}
	cli := &http.Client{Timeout: 5 * time.Second}
	resp, err := cli.Get("http://" + addr + path)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Printf("error: %s returned %s: %s\n", addr, resp.Status, strings.TrimSpace(string(body)))
		return
	}
	fmt.Println(string(body))
}

func printDatasets(s *nexus.Session) {
	infos := s.Datasets()
	if len(infos) == 0 {
		fmt.Println("  (no datasets)")
		return
	}
	for _, ds := range infos {
		kind := "memory "
		if ds.Durable {
			kind = "durable"
		}
		fmt.Printf("  %-12s %8d rows  %s on %-12s %s\n", ds.Name, ds.Rows, kind, ds.Provider, ds.Schema)
	}
}
