package kernel

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kmem"
	"repro/internal/sim"
)

// testParams returns a deterministic timing model with no dispatch costs,
// so tests can assert exact virtual times.
func testParams() Params {
	return Params{
		Quantum:   6 * time.Millisecond,
		FutexFIFO: true,
	}
}

func bootTest(t *testing.T, cores int) (*sim.Simulation, *Kernel) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("p", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(part, Config{Name: "primary", Params: testParams(), Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	return s, k
}

func TestBootReservesKernelMemory(t *testing.T) {
	_, k := bootTest(t, 0)
	if k.Mem().Bytes(kmem.KernelIgnored) == 0 {
		t.Error("boot reserved no unrecoverable kernel memory")
	}
	if k.Cores() != 32 {
		t.Errorf("Cores = %d, want 32", k.Cores())
	}
	if !k.Alive() {
		t.Error("fresh kernel not alive")
	}
}

func TestBootErrors(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, _ := m.NewPartition("p", 0)
	if _, err := Boot(part, Config{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := Boot(part, Config{Name: "k", Cores: 999}); err == nil {
		t.Error("over-subscribed cores accepted")
	}
}

func TestComputeParallelism(t *testing.T) {
	s, k := bootTest(t, 4)
	var finished []sim.Time
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(100 * time.Millisecond)
			finished = append(finished, tk.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finished {
		if f != sim.Time(100*time.Millisecond) {
			t.Errorf("task finished at %v, want exactly 100ms (4 tasks on 4 cores)", f)
		}
	}
	if got := k.ComputeTime(); got != 400*time.Millisecond {
		t.Errorf("ComputeTime = %v, want 400ms", got)
	}
}

func TestComputeContention(t *testing.T) {
	s, k := bootTest(t, 2)
	var last sim.Time
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(60 * time.Millisecond)
			if tk.Now() > last {
				last = tk.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 tasks x 60ms on 2 cores = 120ms total; round-robin means everyone
	// finishes near the end.
	if last != sim.Time(120*time.Millisecond) {
		t.Errorf("last task finished at %v, want 120ms", last)
	}
}

func TestComputeRoundRobinFairness(t *testing.T) {
	s, k := bootTest(t, 1)
	var first sim.Time
	k.Spawn("long", func(tk *Task) {
		tk.Compute(100 * time.Millisecond)
	})
	k.Spawn("short", func(tk *Task) {
		tk.Compute(6 * time.Millisecond)
		first = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// With a 6ms quantum the short task must interleave, not wait 100ms.
	if first > sim.Time(20*time.Millisecond) {
		t.Errorf("short task finished at %v; scheduler is not time-slicing", first)
	}
}

// TestKillMidSliceThenReuseCore kills a task in the middle of a timeslice
// and then runs two more tasks on the same core. The core's slice record
// is reused, so the killed slice's expiry must be cancelled: firing at 6ms
// it would cut the next task's first slice short and hand the core to the
// queued task 2ms early.
func TestKillMidSliceThenReuseCore(t *testing.T) {
	s, k := bootTest(t, 1)
	victim := k.Spawn("victim", func(tk *Task) {
		tk.Compute(100 * time.Millisecond)
		t.Error("killed task finished its compute")
	})
	s.Schedule(time.Millisecond, func() { victim.Kill() })
	var longDone, shortStart, shortDone sim.Time
	s.Schedule(2*time.Millisecond, func() {
		k.Spawn("long", func(tk *Task) {
			tk.Compute(20 * time.Millisecond)
			longDone = tk.Now()
		})
		k.Spawn("short", func(tk *Task) {
			shortStart = tk.Now()
			tk.Compute(time.Millisecond)
			shortDone = tk.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Finished() || k.IdleCores() != 1 {
		t.Fatalf("victim finished=%v, idle cores %d; want true, 1", victim.Finished(), k.IdleCores())
	}
	// long holds the core 2..8ms, short runs 8..9ms, long finishes at 23ms.
	if shortStart != sim.Time(2*time.Millisecond) || shortDone != sim.Time(9*time.Millisecond) {
		t.Errorf("short ran %v..%v, want compute ending at 9ms", shortStart, shortDone)
	}
	if longDone != sim.Time(23*time.Millisecond) {
		t.Errorf("long finished at %v, want 23ms", longDone)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events left pending", s.Pending())
	}
}

func TestDispatchPenaltyOnIdleCore(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.ContextSwitch = time.Microsecond
	k.params.IdleThreshold = time.Millisecond
	k.params.IdleWakeMin = 5 * time.Millisecond
	k.params.IdleWakeMax = 6 * time.Millisecond
	var done sim.Time
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond) // core idles past the threshold
		tk.Compute(time.Millisecond)
		done = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	min := sim.Time(10*time.Millisecond + time.Millisecond + 5*time.Millisecond)
	if done < min {
		t.Errorf("finished at %v, want >= %v (deep-idle wake penalty)", done, min)
	}
}

func TestNoIdlePenaltyOnBusyHandoff(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.IdleThreshold = time.Millisecond
	k.params.IdleWakeMin = 50 * time.Millisecond
	k.params.IdleWakeMax = 60 * time.Millisecond
	var done sim.Time
	// Two tasks keep the core busy: hand-offs must not pay idle penalty.
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(30 * time.Millisecond)
			done = tk.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(60*time.Millisecond) {
		t.Errorf("finished at %v, want exactly 60ms (no idle penalty on handoff)", done)
	}
}

func TestFutexFIFOOrder(t *testing.T) {
	s, k := bootTest(t, 8)
	key := k.NewFutexKey()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("waiter", func(tk *Task) {
			tk.Sleep(time.Duration(i) * time.Millisecond) // deterministic arrival order
			tk.FutexWait(key, -1)
			order = append(order, i)
		})
	}
	k.Spawn("waker", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond)
		if n := tk.FutexWake(key, 100); n != 5 {
			t.Errorf("FutexWake woke %d, want 5", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("futex wake order %v, want FIFO", order)
		}
	}
}

func TestFutexWaitTimeout(t *testing.T) {
	s, k := bootTest(t, 1)
	var woken bool
	k.Spawn("w", func(tk *Task) {
		woken = tk.FutexWait(k.NewFutexKey(), 2*time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Error("FutexWait reported woken on timeout")
	}
}

func TestFutexWakeLimited(t *testing.T) {
	s, k := bootTest(t, 8)
	key := k.NewFutexKey()
	woken := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(tk *Task) {
			if tk.FutexWait(key, 20*time.Millisecond) {
				woken++
			}
		})
	}
	k.Spawn("waker", func(tk *Task) {
		tk.Sleep(5 * time.Millisecond)
		if n := tk.FutexWake(key, 2); n != 2 {
			t.Errorf("woke %d, want 2", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 2 {
		t.Errorf("%d waiters woken, want 2", woken)
	}
}

func TestPanicKillsTasks(t *testing.T) {
	s, k := bootTest(t, 4)
	survived := false
	k.Spawn("w", func(tk *Task) {
		tk.Sleep(time.Hour)
		survived = true
	})
	var reasons []PanicReason
	k.OnPanic(func(r PanicReason) { reasons = append(reasons, r) })
	s.Schedule(time.Millisecond, func() { k.Panic("test", nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if survived {
		t.Error("task survived kernel panic")
	}
	if k.Alive() {
		t.Error("kernel alive after panic")
	}
	if len(reasons) != 1 || reasons[0].Cause != "test" {
		t.Errorf("panic callbacks = %v", reasons)
	}
	// Double panic is a no-op.
	k.Panic("again", nil)
	if len(reasons) != 1 {
		t.Error("second Panic invoked callbacks")
	}
}

func TestHandleFaultCoreFailStop(t *testing.T) {
	_, k := bootTest(t, 4)
	out := k.HandleFault(hw.Fault{Kind: hw.CoreFailStop, Node: 0, Core: 1})
	if out != kmem.OutcomeKernelPanic {
		t.Errorf("outcome = %v, want kernel panic", out)
	}
	if k.Alive() {
		t.Error("kernel alive after core fail-stop")
	}
	if r := k.PanicReason(); r == nil || !strings.Contains(r.Cause, "core-fail-stop") {
		t.Errorf("panic reason = %+v", k.PanicReason())
	}
}

func TestHandleFaultOtherPartitionIgnored(t *testing.T) {
	_, k := bootTest(t, 4) // owns nodes 0-3
	out := k.HandleFault(hw.Fault{Kind: hw.CoreFailStop, Node: 7})
	if out != kmem.OutcomeNone || !k.Alive() {
		t.Error("fault on foreign partition affected kernel")
	}
}

func TestHandleFaultMemoryOutcomes(t *testing.T) {
	_, k := bootTest(t, 4)
	// Lay out user memory after the boot reservation so we can aim faults.
	if err := k.Mem().Alloc(kmem.User, 1<<30); err != nil {
		t.Fatal(err)
	}
	var userHits []int64
	k.OnUserHit(func(addr int64) { userHits = append(userHits, addr) })

	// Address 0 falls in the boot reservation (KernelIgnored): corrected
	// errors are absorbed, uncorrected ones panic the kernel.
	if out := k.HandleFault(hw.Fault{Kind: hw.MemCorrected, Node: 0, Addr: 0}); out != kmem.OutcomeNone {
		t.Errorf("corrected error outcome = %v, want none", out)
	}
	if !k.Alive() {
		t.Fatal("corrected error killed kernel")
	}
	// An address just past the kernel reservation hits user memory.
	userAddr := k.Mem().Bytes(kmem.KernelIgnored) + 4096
	if out := k.HandleFault(hw.Fault{Kind: hw.MemUncorrected, Node: 0, Addr: userAddr}); out != kmem.OutcomeUserKill {
		t.Errorf("user-memory DUE outcome = %v, want user-kill", out)
	}
	if len(userHits) != 1 {
		t.Errorf("user-hit callbacks = %d, want 1", len(userHits))
	}
	if !k.Alive() {
		t.Fatal("user-memory fault killed kernel")
	}
	if out := k.HandleFault(hw.Fault{Kind: hw.MemUncorrected, Node: 0, Addr: 0}); out != kmem.OutcomeKernelPanic {
		t.Errorf("kernel-memory DUE outcome = %v, want panic", out)
	}
	if k.Alive() {
		t.Error("kernel survived DUE in unrecoverable memory")
	}
}

func TestDeviceExclusiveOwnership(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	p0, _ := m.NewPartition("a", 0, 1, 2, 3)
	p1, _ := m.NewPartition("b", 4, 5, 6, 7)
	k0, err := Boot(p0, Config{Name: "primary", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Boot(p1, Config{Name: "secondary", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	nic := NewDevice("eth0", 5*time.Second)
	var loadedAt sim.Time
	k0.Spawn("boot", func(tk *Task) {
		if err := tk.LoadDriver(nic); err != nil {
			t.Errorf("LoadDriver: %v", err)
		}
		loadedAt = tk.Now()
	})
	k1.Spawn("stealer", func(tk *Task) {
		tk.Sleep(10 * time.Second)
		if err := tk.LoadDriver(nic); err == nil {
			t.Error("live kernel's device was stolen")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if loadedAt != sim.Time(5*time.Second) {
		t.Errorf("driver loaded at %v, want 5s", loadedAt)
	}
	if nic.Owner() != k0 || !nic.Loaded() {
		t.Error("ownership/loaded state wrong")
	}

	// After the owner dies, the peer can take over; reload takes 5s.
	k0.Panic("fault", nil)
	var tookOver sim.Time
	loads := 0
	nic.OnLoad(func(*Kernel) { loads++ })
	k1.Spawn("failover", func(tk *Task) {
		if err := tk.LoadDriver(nic); err != nil {
			t.Errorf("takeover LoadDriver: %v", err)
		}
		tookOver = tk.Now()
	})
	start := s.Now()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tookOver.Sub(start); got != 5*time.Second {
		t.Errorf("takeover took %v, want 5s", got)
	}
	if nic.Owner() != k1 || !nic.Loaded() || loads != 1 {
		t.Error("takeover state wrong")
	}
}

func TestJoin(t *testing.T) {
	s, k := bootTest(t, 4)
	var joined sim.Time
	w := k.Spawn("worker", func(tk *Task) {
		tk.Sleep(25 * time.Millisecond)
	})
	k.Spawn("main", func(tk *Task) {
		w.Join(tk)
		joined = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != sim.Time(25*time.Millisecond) {
		t.Errorf("joined at %v, want 25ms", joined)
	}
}

func TestSyscallCost(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.SyscallCost = time.Microsecond
	var end sim.Time
	k.Spawn("w", func(tk *Task) {
		for i := 0; i < 10; i++ {
			tk.Syscall()
		}
		end = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(10*time.Microsecond) {
		t.Errorf("10 syscalls took %v, want 10us", end)
	}
}
