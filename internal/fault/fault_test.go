package fault

import (
	"errors"
	"fmt"
	"testing"

	"specdb/internal/obs"
	"specdb/internal/storage"
)

func TestNilInjectorNeverInjects(t *testing.T) {
	var in *Injector // nil is the disabled injector
	if in.ReadFault(1) != nil || in.WriteFault(1) != nil {
		t.Fatal("nil injector injected")
	}
	if _, slow := in.SlowIO(1); slow {
		t.Fatal("nil injector slowed I/O")
	}
	if in.FrameExhaustion(1) != nil {
		t.Fatal("nil injector exhausted frames")
	}
	in.AttachMetrics(obs.NewRegistry()) // must not panic
	in.SetArmed(false)
	if NewInjector(Config{Seed: 99}) != nil {
		t.Fatal("zero-rate config should yield a nil injector")
	}
}

// TestInjectorDeterminism: equal seeds and equal operation sequences draw
// identical fault decisions.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, ReadErrorRate: 0.2, CorruptionRate: 0.1, WriteErrorRate: 0.15, SlowIORate: 0.1, FrameExhaustionRate: 0.05}
	run := func() string {
		in := NewInjector(cfg)
		var out string
		for i := 0; i < 500; i++ {
			id := storage.PageID(i % 37)
			if e := in.ReadFault(id); e != nil {
				out += fmt.Sprintf("r%d:%v;", i, e.Kind)
			}
			if e := in.WriteFault(id); e != nil {
				out += fmt.Sprintf("w%d;", i)
			}
			if extra, slow := in.SlowIO(id); slow {
				out += fmt.Sprintf("s%d:%d;", i, extra)
			}
			if e := in.FrameExhaustion(id); e != nil {
				out += fmt.Sprintf("x%d;", i)
			}
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no faults injected at these rates")
	}
	cfg.Seed = 8
	if run() == a {
		t.Fatal("different seed produced an identical fault stream")
	}
}

// TestInjectorRates: observed rates land near configured ones.
func TestInjectorRates(t *testing.T) {
	in := NewInjector(Config{Seed: 3, ReadErrorRate: 0.1})
	reg := obs.NewRegistry()
	in.AttachMetrics(reg)
	const n = 5000
	hits := 0
	for i := 0; i < n; i++ {
		if in.ReadFault(storage.PageID(i)) != nil {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.07 || got > 0.13 {
		t.Fatalf("observed read-error rate %.3f, configured 0.1", got)
	}
	if v := reg.Counter("fault.injected.read_errors").Value(); v != int64(hits) {
		t.Fatalf("metric %d != observed %d", v, hits)
	}
}

func TestDisarmedInjectorDrawsNothing(t *testing.T) {
	in := NewInjector(Config{Seed: 5, ReadErrorRate: 1})
	in.SetArmed(false)
	for i := 0; i < 100; i++ {
		if in.ReadFault(storage.PageID(i)) != nil {
			t.Fatal("disarmed injector injected")
		}
	}
	in.SetArmed(true)
	if in.ReadFault(0) == nil {
		t.Fatal("re-armed injector at rate 1 did not inject")
	}
	// Disarmed periods consume no PRNG draws: the post-arm stream equals a
	// fresh injector's stream.
	fresh := NewInjector(Config{Seed: 5, ReadErrorRate: 0.3})
	gated := NewInjector(Config{Seed: 5, ReadErrorRate: 0.3})
	gated.SetArmed(false)
	for i := 0; i < 50; i++ {
		gated.ReadFault(storage.PageID(i))
	}
	gated.SetArmed(true)
	for i := 0; i < 200; i++ {
		a, b := fresh.ReadFault(storage.PageID(i)), gated.ReadFault(storage.PageID(i))
		if (a == nil) != (b == nil) {
			t.Fatalf("draw %d diverged after disarmed prefix", i)
		}
	}
}

func TestErrorTransience(t *testing.T) {
	e := &Error{Kind: ReadError, Op: "read", Page: 4}
	if !IsTransient(e) {
		t.Fatal("injected fault not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", e)) {
		t.Fatal("wrapped fault not transient")
	}
	if IsTransient(errors.New("storage: read of unallocated page")) {
		t.Fatal("a real storage error must not be transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil transient")
	}
}

// TestWrapDisk: the wrapper applies decisions at the I/O boundary and is an
// identity when the injector is nil.
func TestWrapDisk(t *testing.T) {
	inner := storage.NewDiskManager(64)
	if WrapDisk(inner, nil) != storage.Disk(inner) {
		t.Fatal("nil injector should not wrap")
	}
	in := NewInjector(Config{Seed: 11, CorruptionRate: 1})
	d := WrapDisk(inner, in)
	id := d.Allocate()
	buf := make([]byte, 64)
	buf[0] = 0x17
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] == 0x17 {
		t.Fatal("corruption at rate 1 left the page intact")
	}
	// The underlying page is untouched: corruption happens in the returned
	// buffer, not on disk.
	clean := make([]byte, 64)
	if err := inner.Read(id, clean); err != nil {
		t.Fatal(err)
	}
	if clean[0] != 0x17 {
		t.Fatal("corruption leaked to the underlying disk")
	}
}
