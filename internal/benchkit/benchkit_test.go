package benchkit

import (
	"context"
	"testing"

	"uvacg/internal/resourcedb"
	"uvacg/internal/services/scheduler"
)

// These tests keep the measurement harnesses honest: every operation
// the benchmarks time must actually succeed and observe real effects.

func TestPropertyHarnessOps(t *testing.T) {
	h, err := NewPropertyHarness(resourcedb.StructuredCodec{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, fn := range map[string]func(context.Context) error{
		"GetProperty":   h.GetProperty,
		"Query":         h.Query,
		"QueryComputed": h.QueryComputed,
		"CustomGet":     h.CustomGet,
		"Stateless":     h.StatelessEcho,
		"Mutate":        h.Mutate,
		"SetProperty":   h.SetProperty,
	} {
		if err := fn(ctx); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := h.GetMultiple(ctx, 4); err != nil {
		t.Errorf("GetMultiple: %v", err)
	}
}

func TestRediscoveryHarness(t *testing.T) {
	h, err := NewRediscoveryHarness(40)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := h.Rediscover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 10 { // every fourth resource is Running
		t.Fatalf("recovered %d, want 10", recovered)
	}
	if h.ClientTableBytes() == 0 {
		t.Fatal("EPR table size is zero")
	}
}

func TestCodecHarness(t *testing.T) {
	for _, codec := range []resourcedb.Codec{resourcedb.StructuredCodec{}, resourcedb.BlobCodec{}} {
		h, err := NewCodecHarness(codec, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Save(); err != nil {
			t.Fatal(err)
		}
		if err := h.Load(); err != nil {
			t.Fatal(err)
		}
		n, err := h.QueryByProperty()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s: query matched nothing", codec.Name())
		}
	}
}

func TestNotifyHarnessDeliveryCounts(t *testing.T) {
	for _, viaBroker := range []bool{false, true} {
		h, err := NewNotifyHarness(3, viaBroker)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := h.PublishAndWait(ctx); err != nil {
			t.Fatalf("viaBroker=%v: %v", viaBroker, err)
		}
		if h.Received() != 3 {
			t.Fatalf("viaBroker=%v: received %d", viaBroker, h.Received())
		}
		if err := h.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransferHarnessAllRoutes(t *testing.T) {
	h, err := NewTransferHarness(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	for _, scheme := range []string{"inproc", "http", "soap.tcp"} {
		n, err := h.Fetch(ctx, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if n != 8<<10 {
			t.Fatalf("%s: fetched %d bytes", scheme, n)
		}
	}
	if _, err := h.Fetch(ctx, "carrier-pigeon"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// The E6 baseline: the byte-only client gets the attached reply
	// inlined by the transport and still reads every byte.
	if n, err := h.FetchLegacy(ctx, "soap.tcp"); err != nil || n != 8<<10 {
		t.Fatalf("soap.tcp-v1 baseline: fetched %d bytes, err %v", n, err)
	}
	if err := h.LocalStage(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.SyncUpload(ctx); err != nil {
		t.Fatal(err)
	}
	blocked, total, err := h.AsyncUpload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if blocked > total {
		t.Fatalf("blocked %v exceeds total %v", blocked, total)
	}
}

func TestGridHarnessWorkloads(t *testing.T) {
	h, err := NewGridHarness(HeterogeneousNodes(), scheduler.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	if _, err := h.RunBatch(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunPipeline(ctx, 3); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimeHarness(t *testing.T) {
	h, err := NewLifetimeHarness(64)
	if err != nil {
		t.Fatal(err)
	}
	if destroyed := h.Sweep(); destroyed != 8 {
		t.Fatalf("first sweep destroyed %d, want 8", destroyed)
	}
	if destroyed := h.Sweep(); destroyed != 0 {
		t.Fatalf("steady-state sweep destroyed %d", destroyed)
	}
}

func TestSecurityHarnessModes(t *testing.T) {
	h, err := NewSecurityHarness()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, fn := range map[string]func(context.Context) error{
		"plain":     h.Plain,
		"token":     h.UsernameTokenPlain,
		"digest":    h.UsernameTokenDigest,
		"encrypted": h.EncryptedToken,
	} {
		if err := fn(ctx); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUtilizationSweepMonotone(t *testing.T) {
	loose, looseErr, err := UtilizationSweep(0.25, 400)
	if err != nil {
		t.Fatal(err)
	}
	tight, tightErr, err := UtilizationSweep(0.02, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Tighter thresholds notify more and track truth more closely.
	if tight <= loose {
		t.Fatalf("notify counts: tight=%d loose=%d", tight, loose)
	}
	if tightErr >= looseErr {
		t.Fatalf("staleness: tight=%f loose=%f", tightErr, looseErr)
	}
}
