// Command rrs-serve exposes the simulation engine as an HTTP job
// service: submitted specs are queued FIFO, executed by a worker pool,
// answered from a content-addressed result store on re-submission, and
// observable through per-job status and a Prometheus/JSON metrics
// endpoint.
//
// Usage:
//
//	rrs-serve -addr :8080 -workers 8 -queue-depth 128 -journal jobs.journal
//
// With -journal, accepted specs and terminal states are written to an
// append-only JSONL write-ahead log. On startup the journal is replayed:
// finished results repopulate the result store, and jobs that never reached a
// terminal state are re-enqueued under their original ids — a kill -9
// mid-sweep loses no accepted work. A failed run fails its job: the
// simulator is deterministic, so a re-run would fail the same way, and
// clients retry only what a retry can outlive (dropped connections,
// 429s, 503s). A panic inside a simulation marks only that job failed
// (rrs_worker_panics_total); the process keeps serving.
//
// A whole parameter sweep is one request: POST /v1/sweeps takes a base
// spec plus axes (mitigations, blacklist sizes, Row Hammer thresholds,
// scales, seeds, workloads) and the manager expands the cartesian
// product into child jobs deduplicated by content hash. GET
// /v1/sweeps/{id} reports aggregated progress and per-child states;
// GET /v1/sweeps/{id}/results returns every child result keyed by
// child hash once the sweep is terminal. The parent is journaled too,
// so a kill -9 mid-sweep re-expands and resumes from the completed
// children on restart, and resubmitting a finished sweep is answered
// entirely from the result store — the rrs_sweep_* metrics
// count both. rrs-experiments -server submits each figure's grid this
// way. See DESIGN.md §15.
//
// Fleet mode joins several rrs-serve processes into one logical
// service. A fleet can be seeded with a static roster, every node
// started with the same list and its own id:
//
//	rrs-serve -addr :8080 -node n1 -fleet 'n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080' -journal n1.journal
//
// or grown dynamically: a new node names only itself and one or more
// live peers to gossip with, and the fleet learns it without any
// survivor restarting —
//
//	rrs-serve -addr :8080 -node n4 -advertise http://h4:8080 -join http://h1:8080 -journal n4.journal
//
// Any node then accepts any submission: ownership is decided by
// rendezvous hashing over the spec's content hash, non-owners forward
// to the owner, job polls are proxied to the job's home node, health
// probes (carrying the gossiped membership table) shrink the ring
// around dead peers, a sweep's children are submitted to their own
// ring owners as the sweep is expanded (so one sweep runs on every
// node's workers), a cold run first asks the two nodes that should
// hold its result, and each completed result is replicated to its ring
// successor so a single node death never costs a re-simulation
// (anti-entropy repair keeps that invariant through churn). See
// internal/fleet, DESIGN.md §13–14.
//
// With -debug-addr, a second listener serves net/http/pprof profiles
// and expvar counters (for operators only — never expose it publicly):
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:6060/debug/pprof/heap
//	curl -s localhost:6060/debug/vars
//
// Walkthrough:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"workloads":["bzip2"],"mitigation":"rrs","scale":16,"epochs":2}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"base":{"workloads":["bzip2"],"scale":16,"epochs":2},"axes":{"mitigations":["none","rrs"],"seeds":[1,2,3]}}'
//	curl -s localhost:8080/v1/sweeps/sweep-000001
//	curl -s localhost:8080/v1/sweeps/sweep-000001/results
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503, intake
// stops, and accepted jobs get -drain-timeout to finish. Jobs that do
// not make it are requeued through the journal (their terminal records
// are withheld, so a -journal restart replays them as pending) — a
// drain completes accepted work or hands it to the next process, never
// drops it.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// main delegates to run so every exit path unwinds through the defers —
// in particular the journal close/fsync. The previous shape called
// os.Exit (via fatalf) directly from the middle of main, so an early
// ListenAndServe failure skipped `defer journal.Close()` and left the
// WAL without its final fsync.
func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rrs-serve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "listen address for the pprof/expvar debug server (empty disables; keep it private)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 64, "max queued jobs before 429s")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job run limit (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for accepted jobs; leftovers journal-requeue")
		journalPath  = flag.String("journal", "", "durable job journal path (JSONL WAL; empty disables durability)")
		paranoid     = flag.Bool("paranoid", false, "force every job to run with the self-verification layer (stats unchanged; results gain an invariant summary)")

		fleetRoster   = flag.String("fleet", "", "fleet seed roster as 'id=url,id=url,...' (empty = single-node mode unless -join)")
		nodeID        = flag.String("node", "", "this node's id within the fleet (required with -fleet or -join)")
		joinSeeds     = flag.String("join", "", "comma-separated peer base URLs to gossip-join a running fleet (requires -node and -advertise)")
		advertise     = flag.String("advertise", "", "base URL peers reach this node at (required with -join)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "fleet peer health-probe cadence")
		replicaQueue  = flag.Int("replica-queue", 0, "bounded result-replication queue depth (0 = default 128; negative disables replication)")
		repairEvery   = flag.Duration("repair-interval", 0, "anti-entropy replica-repair cadence (0 = default 30s; negative disables)")
	)
	flag.Parse()

	var journal *service.Journal
	var replayed *service.Replayed
	if *journalPath != "" {
		var err error
		journal, replayed, err = service.OpenJournal(*journalPath)
		if err != nil {
			return err
		}
		defer journal.Close()
	}

	svcOpts := service.Options{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *jobTimeout,
		Journal:        journal,
		ForceParanoid:  *paranoid,
	}

	// Build either a lone manager or a fleet node wrapping one; both
	// paths expose the same mgr/handler pair and the same drain.
	var (
		mgr        *service.Manager
		handler    http.Handler
		node       *fleet.Node
		rosterSize int
	)
	if *fleetRoster != "" || *joinSeeds != "" {
		if *nodeID == "" {
			return errors.New("fleet mode requires -node (this node's id)")
		}
		var peers []fleet.Peer
		var self fleet.Peer
		if *fleetRoster != "" {
			var err error
			peers, err = parseRoster(*fleetRoster)
			if err != nil {
				return err
			}
			for _, p := range peers {
				if p.ID == *nodeID {
					self = p
				}
			}
			if self.ID == "" {
				return fmt.Errorf("-node %q is not in the -fleet roster", *nodeID)
			}
		} else {
			// -join only: the node knows itself and learns the rest by
			// gossiping with the seeds once it is listening.
			if *advertise == "" {
				return errors.New("-join requires -advertise (the base URL peers reach this node at)")
			}
			self = fleet.Peer{ID: *nodeID, URL: *advertise}
			peers = []fleet.Peer{self}
		}
		rosterSize = len(peers)
		var err error
		node, err = fleet.New(fleet.Options{
			Self:             self,
			Peers:            peers,
			Service:          svcOpts,
			ProbeInterval:    *probeInterval,
			ReplicationQueue: *replicaQueue,
			RepairInterval:   *repairEvery,
		})
		if err != nil {
			return err
		}
		mgr = node.Manager()
		handler = node.Handler()
	} else {
		mgr = service.NewManager(svcOpts)
		handler = service.Handler(mgr)
	}

	if replayed != nil {
		if err := mgr.Restore(replayed); err != nil {
			fmt.Fprintf(os.Stderr, "rrs-serve: journal replay: %v\n", err)
		}
		fmt.Fprintf(os.Stderr,
			"rrs-serve: journal %s replayed: %d jobs (%d re-enqueued, %d cached results, %d corrupt lines dropped)\n",
			*journalPath, len(replayed.Jobs), replayed.Pending, replayed.Results, replayed.Dropped)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rrs-serve: listening on %s\n", *addr)
	if node != nil {
		node.Start()
		if *joinSeeds != "" {
			seeds := splitSeeds(*joinSeeds)
			joinCtx, cancelJoin := context.WithTimeout(ctx, 30*time.Second)
			err := node.Join(joinCtx, seeds)
			cancelJoin()
			if err != nil {
				return fmt.Errorf("fleet join: %w", err)
			}
			fmt.Fprintf(os.Stderr, "rrs-serve: fleet node %s joined via %d seed(s); now sees %d member(s)\n",
				*nodeID, len(seeds), len(node.Members()))
		} else {
			fmt.Fprintf(os.Stderr, "rrs-serve: fleet node %s started on a seed roster of %d\n",
				*nodeID, rosterSize)
		}
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "rrs-serve: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rrs-serve: pprof/expvar on %s/debug\n", *debugAddr)
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rrs-serve: draining: intake stopped, finishing accepted jobs...")
	case err := <-errc:
		return err
	}

	// Drain before tearing the listener down: /readyz must answer 503
	// (so load balancers and fleet peers stop routing here) while
	// accepted jobs finish and clients poll their last results. Jobs
	// the deadline cuts short keep their journal records pending and
	// replay on the next start — the drain bug this ordering replaces
	// cancelled them with terminal records, silently losing accepted
	// work on every SIGTERM.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	var drainErr error
	if node != nil {
		drainErr = node.Drain(drainCtx)
	} else {
		drainErr = mgr.Drain(drainCtx)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr,
			"rrs-serve: drain deadline hit; unfinished jobs will replay from the journal: %v\n", drainErr)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rrs-serve: http shutdown: %v\n", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "rrs-serve: debug shutdown: %v\n", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// splitSeeds turns "http://h1:8080,http://h2:8080" into a URL list.
func splitSeeds(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// parseRoster turns "n1=http://h1:8080,n2=http://h2:8080" into peers.
func parseRoster(s string) ([]fleet.Peer, error) {
	var peers []fleet.Peer
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, found := strings.Cut(entry, "=")
		if !found || id == "" || url == "" {
			return nil, fmt.Errorf("-fleet entry %q is not id=url", entry)
		}
		peers = append(peers, fleet.Peer{ID: id, URL: url})
	}
	if len(peers) == 0 {
		return nil, errors.New("-fleet roster is empty")
	}
	return peers, nil
}

// debugMux serves the standard Go debug surfaces on a dedicated mux —
// registered explicitly rather than via the net/http/pprof and expvar
// side effects on DefaultServeMux, so the job API listener never
// exposes them.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
