package tcpstack

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

const (
	bulkBytes = 32 << 20 // stream length
	bulkChunk = 64 << 10 // server Send size
	bulkRead  = 256 << 10
)

// newBulkStream sets up a 32 KiB-MSS pair whose server streams n bytes (a
// multiple of bulkChunk) in 64 KiB Sends and whose client reads them with
// Recv(256 KiB), checking every byte against the pattern without keeping
// it. Run p.sim; *got then holds the number of bytes received.
func newBulkStream(tb testing.TB, n int) (*pair, *int) {
	params := DefaultParams()
	params.MSS = 32 << 10
	p := newPair(tb, 11, params)
	chunk := genPayload(bulkChunk, 3)
	l, err := p.server.Listen(80, 1)
	if err != nil {
		tb.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		if err != nil {
			tb.Errorf("Accept: %v", err)
			return
		}
		for sent := 0; sent < n; sent += bulkChunk {
			if _, err := c.Send(tk, chunk); err != nil {
				tb.Errorf("Send: %v", err)
				return
			}
		}
		_ = c.Close(tk)
	})
	got := new(int)
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			tb.Errorf("Connect: %v", err)
			return
		}
		for {
			data, err := c.Recv(tk, bulkRead)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				tb.Errorf("Recv: %v", err)
				return
			}
			for i, b := range data {
				if b != chunk[(*got+i)%bulkChunk] {
					tb.Errorf("stream byte %d corrupted", *got+i)
					return
				}
			}
			*got += len(data)
		}
		_ = c.Close(tk)
	})
	return p, got
}

// TestBulkTransferAllocBudget pins the host allocation cost of a bulk
// stream. Each payload byte must be copied into its segment (segments stay
// immutable while on the wire or queued for retransmit) and into the fresh
// slice Recv returns; the byte queues themselves must not reallocate in
// steady state, so the total stays near 2 bytes per payload byte.
func TestBulkTransferAllocBudget(t *testing.T) {
	p, got := newBulkStream(t, bulkBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if *got != bulkBytes {
		t.Fatalf("received %d of %d bytes", *got, bulkBytes)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / bulkBytes
	t.Logf("%.2f bytes allocated per payload byte", perByte)
	if perByte > 2.5 {
		t.Errorf("bulk transfer allocated %.2f bytes per payload byte, budget 2.5", perByte)
	}
}

// BenchmarkConnBulk measures the send and receive paths on the same 32 MiB
// stream as TestBulkTransferAllocBudget.
func BenchmarkConnBulk(b *testing.B) {
	b.SetBytes(bulkBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, got := newBulkStream(b, bulkBytes)
		b.StartTimer()
		if err := p.sim.Run(); err != nil {
			b.Fatal(err)
		}
		if *got != bulkBytes {
			b.Fatalf("received %d of %d bytes", *got, bulkBytes)
		}
	}
}

// TestRestoreAfterBufferSlides snapshots connections whose byte queues
// have slid their windows many times: the server pushes more than 4x
// SendBuf to a client that reads part of it and then stalls, and the client
// sends a request the blocked server has not read. The snapshots must hold
// exactly the unacknowledged output and the unread input, and a connection
// restored from the server's must finish both streams byte-exact.
func TestRestoreAfterBufferSlides(t *testing.T) {
	params := DefaultParams()
	p := newPair(t, 12, params)
	payload := genPayload(8*params.SendBuf, 9)
	request := genPayload(20<<10, 4)
	stallAt := 5 * params.SendBuf
	l, err := p.server.Listen(80, 4)
	if err != nil {
		t.Fatal(err)
	}

	var served *Conn
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		served = c
		// Blocks once the stalled client's window closes; the kernel
		// dies while it waits.
		_, _ = c.Send(tk, payload)
	})

	var client *Conn
	var got []byte
	requested, resume := false, false
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		client = c
		for len(got) < len(payload) {
			if len(got) >= stallAt && !resume {
				if !requested {
					if _, err := c.Send(tk, request); err != nil {
						t.Errorf("client Send: %v", err)
						return
					}
					requested = true
				}
				tk.Sleep(time.Millisecond)
				continue
			}
			data, err := c.Recv(tk, 64<<10)
			if err != nil {
				t.Errorf("client Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
	})

	p.sim.Spawn("failover-driver", func(pr *sim.Proc) {
		// Steady stall: the server's send queue is full, the client's
		// receive window is closed, the server holds the client's ACK for
		// every byte the client has, and the request has arrived and been
		// acknowledged.
		for served == nil || client == nil ||
			served.BufferedOut() < params.SendBuf ||
			client.BufferedIn() < params.RecvBuf ||
			served.OutAcked() != uint64(len(got)+client.BufferedIn()) ||
			served.BufferedIn() < len(request) || client.BufferedOut() > 0 {
			pr.Sleep(time.Millisecond)
		}
		acked := int(served.OutAcked())
		if acked < 4*params.SendBuf {
			t.Errorf("only %d bytes acknowledged at the snapshot, want more than 4x SendBuf", acked)
		}
		cs := client.Snapshot()
		if !bytes.Equal(cs.RcvData, payload[len(got):acked]) || len(cs.SndData) != 0 {
			t.Errorf("client snapshot holds %d unread and %d unacked bytes, want %d and 0",
				len(cs.RcvData), len(cs.SndData), acked-len(got))
		}
		snap := served.Snapshot()
		if !bytes.Equal(snap.SndData, payload[acked:acked+params.SendBuf]) {
			t.Errorf("SndData is not the unacknowledged suffix: %d bytes, want %d", len(snap.SndData), params.SendBuf)
		}
		if !bytes.Equal(snap.RcvData, request) {
			t.Errorf("RcvData is not the unread request: %d bytes, want %d", len(snap.RcvData), len(request))
		}

		// The primary dies with its kernel, and its connection's timers
		// with it. A fresh stack on the same NIC takes over.
		p.serverK.Panic("injected failure", nil)
		served.fail(ErrClosed)
		newStack := New(p.clientK, "server", params)
		newStack.Attach(p.serverNIC)
		c2, err := newStack.Restore(snap)
		if err != nil {
			t.Errorf("Restore: %v", err)
			return
		}
		c2.Kick()
		resume = true
		p.clientK.Spawn("server2", func(tk *kernel.Task) {
			req, err := c2.Recv(tk, len(request))
			if err != nil || !bytes.Equal(req, request) {
				t.Errorf("restored Recv = %d bytes, %v; want the %d-byte request", len(req), err, len(request))
			}
			if _, err := c2.Send(tk, payload[acked+params.SendBuf:]); err != nil {
				t.Errorf("post-restore Send: %v", err)
			}
		})
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted across restore: got %d bytes, want %d", len(got), len(payload))
	}
}

// TestRecvDrainsAfterReap closes a connection that still holds unread
// input and lets the close complete: the reaped connection drops its queue
// arrays, but the unread bytes must stay readable, followed by EOF.
func TestRecvDrainsAfterReap(t *testing.T) {
	p := newPair(t, 13, DefaultParams())
	payload := genPayload(100<<10, 6)
	l, err := p.server.Listen(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		if _, err := c.Send(tk, payload); err != nil {
			t.Errorf("Send: %v", err)
		}
		_ = c.Close(tk)
	})
	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for !c.PeerFin() {
			tk.Sleep(time.Millisecond)
		}
		_ = c.Close(tk)
		for c.State() != "CLOSED" {
			tk.Sleep(time.Millisecond)
		}
		for {
			data, err := c.Recv(tk, 64<<10)
			if errors.Is(err, EOF) {
				return
			}
			if err != nil {
				t.Errorf("Recv after reap: %v", err)
				return
			}
			got = append(got, data...)
		}
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read %d of %d unread bytes after the connection was reaped", len(got), len(payload))
	}
}
