// Package ledger times single layers in-process, at wire delay 0, one
// public call per operation, so that CPU — not an injected sleep or a
// socket — is the denominator. It is the inside half of the benchmark's
// outside-in view: the rig says how many times a job crosses each layer
// (RPCs, notifications, commits per job), the ledger says what one
// crossing costs. Payloads are the envelopes and documents the rig's
// workloads produce: they are captured from an in-process grid running
// the same generated job sets.
//
// Every row is the median of five timings of a calibrated batch. Layers
// that are off in all four workloads (admission, lease, wssec) have no
// row.
package ledger

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/bench/rig"
	"uvacg/internal/core"
	"uvacg/internal/pipeline"
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

const (
	repeats     = 5                     // timings per row; the row is their median
	batchTarget = 10 * time.Millisecond // a batch is sized to take about this long
	ledgerSeed  = 7                     // the captured sets are generated, like the rig's
	payloadSize = 512 << 10             // data512k's payload
	bulkSize    = 4 << 20               // the soap.tcp bandwidth row's attachment
)

// Names lists every row Run measures.
var Names = []string{
	"soap.marshal_submit16_ns", "soap.marshal_submit16_allocs", "soap.unmarshal_submit16_ns", "soap.unmarshal_submit16_allocs",
	"soap.marshal_notify_ns", "soap.marshal_notify_allocs", "soap.unmarshal_notify_ns", "soap.unmarshal_notify_allocs",
	"transport.inproc_rtt_ns", "transport.http_rtt_ns", "transport.tcp_rtt_ns", "transport.tcp_mib_per_s",
	"pipeline.chain_ns",
	"wsrf.invoke_read_ns", "wsrf.invoke_read_allocs", "wsrf.invoke_write_ns", "wsrf.invoke_write_allocs",
	"resourcedb.get_doc16_ns", "resourcedb.get_doc128_ns", "resourcedb.put_doc16_ns", "resourcedb.put_doc128_ns",
	"wal.commit_fsync_us", "wal.commit_fsync_8w_us", "wal.commit_nosync_us",
	"wsn.publish_fanout1_ns", "wsn.publish_fanout8_ns",
	"scheduler.validate_dag128_ns", "scheduler.parse_doc128_ns", "scheduler.policy_pick64_ns", "scheduler.dispatch_inproc_jobs_per_s",
	"nodeinfo.report_ns", "execution.run_noop_ns", "procspawn.spawn_exit_ns",
	"filesystem.stage_wire_mib_per_s", "filesystem.blob_put_mib_per_s", "filesystem.fetch_mib_per_s",
}

// Run measures every row and returns metric name → value.
func Run() (map[string]float64, error) {
	l := &ledger{out: map[string]float64{}, ctx: context.Background()}
	for _, section := range []func() error{l.gridRows, l.codecRows, l.wireRows, l.resourceRows, l.walRows, l.brokerRows, l.schedulerRows, l.spawnRows} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

type ledger struct {
	out map[string]float64
	ctx context.Context

	// Captured from the in-process grid by gridRows.
	submit16 *soap.Envelope   // a 16-job Submit as the client sends it
	notify   *soap.Envelope   // a job event as an ES publishes it to the broker
	doc16    *xmlutil.Element // a completed 16-job job-set document
	doc128   *xmlutil.Element
}

// timed measures op and records <name>_ns and, when withAllocs is set,
// <name>_allocs.
func (l *ledger) timed(name string, withAllocs bool, op func() error) error {
	ns, allocs, err := measure(op)
	if err != nil {
		return fmt.Errorf("ledger %s: %w", name, err)
	}
	l.out[name+"_ns"] = ns
	if withAllocs {
		l.out[name+"_allocs"] = allocs
	}
	return nil
}

// measure calibrates a batch of op that runs for about batchTarget,
// times it `repeats` times and returns the median time and heap
// allocations per operation.
func measure(op func() error) (nsPerOp, allocsPerOp float64, err error) {
	batch := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		if d >= batchTarget || n >= 1<<20 {
			break
		}
		// Aim past the target so the loop ends in a few steps.
		n = max(2*n, int(float64(n)*float64(2*batchTarget)/float64(d+1)))
		n = min(n, 1<<20)
	}
	ns := make([]float64, repeats)
	allocs := make([]float64, repeats)
	var ms runtime.MemStats
	for r := range ns {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		d, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms)
		ns[r] = float64(d.Nanoseconds()) / float64(n)
		allocs[r] = float64(ms.Mallocs-before) / float64(n)
	}
	sort.Float64s(ns)
	sort.Float64s(allocs)
	return ns[repeats/2], allocs[repeats/2], nil
}

// rate runs op `repeats` times and returns the median of units/second,
// for rows quoted as a throughput.
func rate(units float64, op func() error) (float64, error) {
	if err := op(); err != nil { // warm caches and pools
		return 0, err
	}
	rates := make([]float64, repeats)
	for r := range rates {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		rates[r] = units / time.Since(start).Seconds()
	}
	sort.Float64s(rates)
	return rates[repeats/2], nil
}

// capture keeps the first Submit and the first job-event Notify that
// cross the grid's client, as sent.
type capture struct {
	mu             sync.Mutex
	submit, notify *soap.Envelope
}

func (c *capture) interceptor(brokerPath string) soap.Interceptor {
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		c.mu.Lock()
		switch {
		case call.Action == scheduler.ActionSubmit && c.submit == nil:
			c.submit = stamped(call)
		case call.Action == wsn.ActionNotify && call.Path == brokerPath && c.notify == nil:
			c.notify = stamped(call)
		}
		c.mu.Unlock()
		return next(ctx, call)
	}
}

// stamped clones a request and adds the WS-Addressing headers the
// transport stamps after the interceptor chain.
func stamped(call *soap.CallInfo) *soap.Envelope {
	env := call.Request.Clone()
	wsa.Apply(env, wsa.NewEPR(call.Addr), call.Action)
	return env
}

// gridRows runs the rig's bag workload on an in-process grid shaped like
// the benchmark's (2 nodes × 2 cores, default scheduler settings, wire
// delay 0). It yields the in-process dispatch rate — what the scheduler
// and its RPC fan-out cost with sockets and processes taken away — and
// captures the payloads the other rows replay. The NIS and ES rows run
// here too, against the grid's own services.
func (l *ledger) gridRows() error {
	grid, err := core.NewGrid(core.GridConfig{Nodes: []core.NodeSpec{
		{Name: "n1", Cores: rig.NodeCores, SpeedMHz: 2000, RAMMB: 1024},
		{Name: "n2", Cores: rig.NodeCores, SpeedMHz: 2000, RAMMB: 1024},
	}})
	if err != nil {
		return err
	}
	defer grid.Close()
	var cap capture
	grid.Client.Use(cap.interceptor(grid.Broker.Service().Path()))
	client, err := grid.NewClient(wssec.Credentials{}, false)
	if err != nil {
		return err
	}
	defer client.Close()

	next := 0
	runBag := func(jobs int) (*xmlutil.Element, error) {
		next++
		plan := rig.BagPlan(ledgerSeed, next, jobs)
		for name, content := range plan.Files {
			client.AddFile(name, content)
		}
		sub, err := client.Submit(l.ctx, plan.Spec)
		if err != nil {
			return nil, err
		}
		status, err := sub.Wait(l.ctx)
		if err != nil {
			return nil, err
		}
		if status != scheduler.SetCompleted {
			return nil, fmt.Errorf("in-process %d-job set ended %s", jobs, status)
		}
		return wsrf.NewResourceClient(grid.Client, sub.JobSet).GetDocument(l.ctx)
	}
	const setsPerTiming = 8
	perSec, err := rate(16*setsPerTiming, func() error {
		for i := 0; i < setsPerTiming; i++ {
			if l.doc16, err = runBag(16); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["scheduler.dispatch_inproc_jobs_per_s"] = perSec
	if l.doc128, err = runBag(128); err != nil {
		return err
	}
	l.submit16, l.notify = cap.submit, cap.notify
	if l.submit16 == nil || l.notify == nil {
		return fmt.Errorf("ledger: the in-process grid sent no Submit or no Notify to capture")
	}

	// One utilization report into the live NIS (group update + catalog
	// push through the broker to the subscribed scheduler).
	node := grid.Nodes[0]
	util := 0.0
	if err := l.timed("nodeinfo.report", false, func() error {
		util = 0.5 - util
		p := node.Processor()
		p.Utilization = util
		_, err := grid.Client.Call(l.ctx, grid.NIS.EPR(), nodeinfo.ActionReport, nodeinfo.ReportRequest(p))
		return err
	}); err != nil {
		return err
	}

	// One no-op job through a node's Execution Service alone: Run RPC,
	// working directory, staging of the executable from the client's file
	// server, spawn, and the exit event back through the broker.
	exited := make(chan struct{}, 1)
	consumer := wsn.NewConsumer()
	consumer.Handle(wsn.Simple("ledger-es"), func(_ context.Context, n wsn.Notification) {
		if ev, err := execution.ParseJobEvent(n.Message); err == nil && ev.Kind == execution.EventExited {
			exited <- struct{}{}
		}
	})
	mux := soap.NewMux()
	consumer.Mount(mux, "/listener")
	grid.Network.Register("ledger-sink", transport.NewServer(mux))
	defer grid.Network.Deregister("ledger-sink")
	if _, err := grid.Broker.Producer().Subscribe(wsa.NewEPR("inproc://ledger-sink/listener"), wsn.Simple("ledger-es")); err != nil {
		return err
	}
	client.AddFile("noop.app", core.Script("write out.dat x", "exit 0"))
	files := []filesystem.FileRef{{Source: client.FilesEPR(), RemoteName: "noop.app", LocalName: "noop.app"}}
	return l.timed("execution.run_noop", false, func() error {
		if _, err := grid.Client.Call(l.ctx, node.ES.EPR(), execution.ActionRun, execution.RunRequest("noop", "ledger-es", "noop.app", files)); err != nil {
			return err
		}
		select {
		case <-exited:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("no exit event")
		}
	})
}

// codecRows replays the captured envelopes through the SOAP codec.
func (l *ledger) codecRows() error {
	for _, c := range []struct {
		name string
		env  *soap.Envelope
	}{{"submit16", l.submit16}, {"notify", l.notify}} {
		wire, err := c.env.Marshal()
		if err != nil {
			return err
		}
		if err := l.timed("soap.marshal_"+c.name, true, func() error {
			_, err := c.env.Marshal()
			return err
		}); err != nil {
			return err
		}
		if err := l.timed("soap.unmarshal_"+c.name, true, func() error {
			_, err := soap.Unmarshal(wire)
			return err
		}); err != nil {
			return err
		}
	}
	// The interceptor chain every daemon installs, both sides, around a
	// terminal handler that does nothing.
	var chain soap.Chain
	chain.Use(pipeline.ClientRequestID(), pipeline.ClientDeadline(), pipeline.ServerRequestID(), pipeline.ServerDeadline())
	handler := chain.Bind(func(context.Context, *soap.CallInfo) (*soap.Envelope, error) { return nil, nil })
	ctx, cancel := context.WithTimeout(l.ctx, time.Hour)
	defer cancel()
	call := &soap.CallInfo{Side: soap.ClientSide, Action: scheduler.ActionSubmit, Request: l.notify.Clone()}
	return l.timed("pipeline.chain", false, func() error {
		_, err := handler(ctx, call)
		return err
	})
}

const actionEcho = "urn:uvacg:bench/Echo"

var qEcho = xmlutil.Q("urn:uvacg:bench", "Echo")

// wireRows measures the three bindings with a stateless echo, soap.tcp
// bandwidth with a 4 MiB attachment, and the FSS data paths with
// data512k's payload size: a fetch, a blob put (Write) and a
// machine-to-machine staging over the origin-fetch ("wire") route.
func (l *ledger) wireRows() error {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	mkFSS := func(host string) (*filesystem.Service, *soap.Mux, error) {
		svc, err := filesystem.New(filesystem.Config{
			Address: "inproc://" + host,
			FS:      vfs.New(),
			Client:  client,
			Home:    wsrf.NewStateHome(resourcedb.NewStore().MustTable("directories", resourcedb.StructuredCodec{})),
			Host:    host,
		})
		if err != nil {
			return nil, nil, err
		}
		mux := soap.NewMux()
		mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
		network.Register(host, transport.NewServer(mux))
		return svc, mux, nil
	}
	fssA, muxA, err := mkFSS("machine-a")
	if err != nil {
		return err
	}
	fssB, _, err := mkFSS("machine-b")
	if err != nil {
		return err
	}
	echo := soap.NewDispatcher()
	echo.Register(actionEcho, func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(req.Body), nil
	})
	muxA.Handle("/echo", echo)
	httpBase, stopHTTP, err := transport.ListenHTTP(transport.NewServer(muxA), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer stopHTTP(l.ctx)
	tcp, err := transport.ListenTCP(transport.NewServer(muxA), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tcp.Close()
	defer client.CloseIdleConnections()

	ping := xmlutil.NewElement(qEcho, "ping")
	for _, b := range []struct{ name, base string }{
		{"inproc", "inproc://machine-a"}, {"http", httpBase}, {"tcp", tcp.BaseURL()},
	} {
		to := wsa.NewEPR(b.base + "/echo")
		if err := l.timed("transport."+b.name+"_rtt", false, func() error {
			_, err := client.Call(l.ctx, to, actionEcho, ping)
			return err
		}); err != nil {
			return err
		}
	}

	srcDir, _, err := fssA.CreateDirectory("src")
	if err != nil {
		return err
	}
	payload := make([]byte, bulkSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := filesystem.WriteFile(l.ctx, client, srcDir, "bulk.bin", payload); err != nil {
		return err
	}
	if err := filesystem.WriteFile(l.ctx, client, srcDir, "payload.bin", payload[:payloadSize]); err != nil {
		return err
	}
	mib := func(n int) float64 { return float64(n) / (1 << 20) }
	fetch := func(src wsa.EndpointReference, name string, want int) func() error {
		return func() error {
			data, err := filesystem.FetchFile(l.ctx, client, src, name)
			if err == nil && len(data) != want {
				err = fmt.Errorf("fetched %d bytes of %s, want %d", len(data), name, want)
			}
			return err
		}
	}
	srcTCP := wsa.EndpointReference{Address: tcp.BaseURL() + fssA.WSRF().Path(), ReferenceProperties: srcDir.ReferenceProperties}
	if l.out["transport.tcp_mib_per_s"], err = rate(mib(bulkSize), fetch(srcTCP, "bulk.bin", bulkSize)); err != nil {
		return err
	}
	if l.out["filesystem.fetch_mib_per_s"], err = rate(mib(payloadSize), fetch(srcDir, "payload.bin", payloadSize)); err != nil {
		return err
	}
	dstDir, _, err := fssB.CreateDirectory("dst")
	if err != nil {
		return err
	}
	// Distinct content per put: an identical blob would be a cache hit.
	put := 0
	if l.out["filesystem.blob_put_mib_per_s"], err = rate(mib(payloadSize), func() error {
		put++
		return filesystem.WriteFile(l.ctx, client, dstDir, "put.bin", payload[put:put+payloadSize])
	}); err != nil {
		return err
	}
	stage := filesystem.UploadRequest(wsa.EndpointReference{}, "", []filesystem.FileRef{{Source: srcDir, RemoteName: "payload.bin", LocalName: "in.dat"}})
	l.out["filesystem.stage_wire_mib_per_s"], err = rate(mib(payloadSize), func() error {
		_, err := client.Call(l.ctx, dstDir, filesystem.ActionUploadSync, stage)
		return err
	})
	return err
}

const actionTouch = "urn:uvacg:bench/Touch"

// resourceRows measures the WSRF wrapper around a job-set document — the
// status read a client polls, and a one-attribute write of the kind the
// scheduler makes per job event — and the resource database under it.
func (l *ledger) resourceRows() error {
	table := resourcedb.NewStore().MustTable("jobsets", resourcedb.BlobCodec{})
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: "/SchedulerService", Address: "inproc://master", Home: wsrf.NewStateHome(table)})
	if err != nil {
		return err
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	flip := xmlutil.Q("", "status")
	svc.RegisterMethod(actionTouch, func(_ context.Context, inv *wsrf.Invocation, _ *xmlutil.Element) (*xmlutil.Element, error) {
		st := inv.Doc.Child(scheduler.QJobState)
		if st.Attr(flip) == scheduler.JobRunning {
			st.SetAttr(flip, scheduler.JobCompleted)
		} else {
			st.SetAttr(flip, scheduler.JobRunning)
		}
		return nil, nil
	})
	set, err := svc.CreateResource("set16", l.doc16.Clone())
	if err != nil {
		return err
	}
	mux := soap.NewMux()
	mux.Handle(svc.Path(), svc.Dispatcher())
	network := transport.NewNetwork()
	network.Register("master", transport.NewServer(mux))
	client := transport.NewClient().WithNetwork(network)
	rc := wsrf.NewResourceClient(client, set)
	if err := l.timed("wsrf.invoke_read", true, func() error {
		states, err := rc.GetProperty(l.ctx, scheduler.QJobState)
		if err == nil && len(states) != 16 {
			err = fmt.Errorf("read %d job states, want 16", len(states))
		}
		return err
	}); err != nil {
		return err
	}
	if err := l.timed("wsrf.invoke_write", true, func() error {
		_, err := client.Call(l.ctx, set, actionTouch, xmlutil.NewElement(qEcho, ""))
		return err
	}); err != nil {
		return err
	}
	for _, d := range []struct {
		name string
		doc  *xmlutil.Element
	}{{"doc16", l.doc16}, {"doc128", l.doc128}} {
		if err := l.timed("resourcedb.put_"+d.name, false, func() error { return table.Put(d.name, d.doc) }); err != nil {
			return err
		}
		if err := l.timed("resourcedb.get_"+d.name, false, func() error {
			_, _, err := table.Get(d.name)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// walRows commits the 16-job document through a durable store: one
// writer with fsync, eight writers with fsync (group commit), one writer
// without. The data directory is under TMPDIR, which gridbench points
// inside the checkout, so the fsync is the one the daemons pay.
func (l *ledger) walRows() error {
	for _, c := range []struct {
		name    string
		sync    bool
		writers int
		commits int
	}{
		{"wal.commit_fsync_us", true, 1, 100},
		{"wal.commit_fsync_8w_us", true, 8, 400},
		{"wal.commit_nosync_us", false, 1, 2000},
	} {
		dir, err := os.MkdirTemp("", "ledger-wal-")
		if err != nil {
			return err
		}
		ds, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{Sync: c.sync, CompactBytes: -1})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		table := ds.MustTable("jobsets", resourcedb.BlobCodec{})
		var failed atomic.Value
		perSec, err := rate(float64(c.commits), func() error {
			var wg sync.WaitGroup
			for w := 0; w < c.writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < c.commits/c.writers; i++ {
						if err := table.Put(fmt.Sprintf("set-%d", w), l.doc16); err != nil {
							failed.Store(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err, _ := failed.Load().(error); err != nil {
				return err
			}
			return nil
		})
		closeErr := ds.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		// Wall time per commit: with 8 writers, group commit shares it.
		l.out[c.name] = 1e6 / perSec
	}
	return nil
}

// brokerRows publishes the captured job event through a broker to 1 and
// to 8 subscribed in-process consumers.
func (l *ledger) brokerRows() error {
	notifications, err := wsn.ParseNotifyBody(l.notify.Body)
	if err != nil {
		return err
	}
	event := notifications[0]
	root, _, _ := strings.Cut(event.Topic, "/")
	for _, fanout := range []int{1, 8} {
		network := transport.NewNetwork()
		client := transport.NewClient().WithNetwork(network)
		broker, err := wsn.NewBroker("/NotificationBroker", "inproc://master",
			wsrf.NewStateHome(resourcedb.NewStore().MustTable("subscriptions", resourcedb.BlobCodec{})), client)
		if err != nil {
			return err
		}
		var received atomic.Int64
		for i := 0; i < fanout; i++ {
			consumer := wsn.NewConsumer()
			consumer.Handle(wsn.Simple(root), func(context.Context, wsn.Notification) { received.Add(1) })
			mux := soap.NewMux()
			consumer.Mount(mux, "/listener")
			host := fmt.Sprintf("consumer-%d", i)
			network.Register(host, transport.NewServer(mux))
			if _, err := broker.Producer().Subscribe(wsa.NewEPR("inproc://"+host+"/listener"), wsn.Simple(root)); err != nil {
				return err
			}
		}
		// One-way dispatch runs on its own goroutine, so an operation is a
		// publish plus the wait until every consumer has decoded its copy.
		want := int64(0)
		if err := l.timed(fmt.Sprintf("wsn.publish_fanout%d", fanout), false, func() error {
			want += int64(fanout)
			if got := broker.Producer().Publish(l.ctx, event.Topic, event.Producer, event.Message); got != fanout {
				return fmt.Errorf("delivered to %d of %d consumers", got, fanout)
			}
			for deadline := time.Now().Add(10 * time.Second); received.Load() < want; runtime.Gosched() {
				if time.Now().After(deadline) {
					return fmt.Errorf("consumers saw %d of %d deliveries", received.Load(), want)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// schedulerRows measures the scheduler's pure functions at sizes past
// the workloads' (128 jobs, 64 processors), where their growth shows.
func (l *ledger) schedulerRows() error {
	// 8 layers of 16 jobs; each job reads two outputs of the layer above.
	dag := &scheduler.JobSetSpec{Name: "dag128"}
	for i := 0; i < 128; i++ {
		job := scheduler.JobSpec{Name: fmt.Sprintf("j%03d", i), Executable: core.Local("x.app"), Outputs: []string{"out.dat"}}
		if layer := i / 16; layer > 0 {
			for k := 0; k < 2; k++ {
				dep := (layer-1)*16 + (i+k)%16
				job.Inputs = append(job.Inputs, scheduler.FileSpec{LocalName: fmt.Sprintf("in%d.dat", k), Source: core.Output(fmt.Sprintf("j%03d", dep), "out.dat")})
			}
		}
		dag.Jobs = append(dag.Jobs, job)
	}
	if err := l.timed("scheduler.validate_dag128", false, dag.Validate); err != nil {
		return err
	}
	if err := l.timed("scheduler.parse_doc128", false, func() error {
		if v := scheduler.ParseJobSetDocument(l.doc128); len(v.Jobs) != 128 {
			return fmt.Errorf("parsed %d jobs, want 128", len(v.Jobs))
		}
		return nil
	}); err != nil {
		return err
	}
	procs := make([]nodeinfo.Processor, 64)
	for i := range procs {
		procs[i] = nodeinfo.Processor{Host: fmt.Sprintf("n%02d", i), Cores: 2, SpeedMHz: 2000 + float64(i), RAMMB: 1024, Utilization: float64(i%7) / 10}
	}
	return l.timed("scheduler.policy_pick64", false, func() error {
		_, err := scheduler.Greedy{}.Pick(procs, scheduler.Locality{}, 0)
		return err
	})
}

// spawnRows measures ProcSpawn alone: parse and run a no-op script to
// its exit callback.
func (l *ledger) spawnRows() error {
	fs := vfs.New()
	dir, err := fs.Mkdir("/job")
	if err != nil {
		return err
	}
	if err := fs.Write(dir, "noop.app", core.Script("write out.dat x", "exit 0")); err != nil {
		return err
	}
	spawner, err := procspawn.NewSpawner(procspawn.Config{FS: fs, Cores: rig.NodeCores, SpeedMHz: 2000})
	if err != nil {
		return err
	}
	exited := make(chan struct{}, 1)
	return l.timed("procspawn.spawn_exit", false, func() error {
		p, err := spawner.Spawn(procspawn.SpawnSpec{Executable: "noop.app", WorkingDir: dir, OnExit: func(*procspawn.Process) { exited <- struct{}{} }})
		if err != nil {
			return err
		}
		<-exited
		spawner.Reap(p.PID)
		return nil
	})
}
