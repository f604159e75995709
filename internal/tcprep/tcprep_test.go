package tcprep

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

func TestResultEncoding(t *testing.T) {
	cases := []struct {
		n    int
		err  error
		want error
	}{
		{42, nil, nil},
		{0, nil, nil},
		{0, tcpstack.EOF, tcpstack.EOF},
		{0, tcpstack.ErrReset, tcpstack.ErrReset},
		{0, tcpstack.ErrClosed, tcpstack.ErrClosed},
		{0, errors.New("weird"), nil}, // mapped to a generic error
	}
	for _, c := range cases {
		v := encodeRes(c.n, c.err)
		n, err := decodeRes(v)
		if c.err == nil {
			if err != nil || n != c.n {
				t.Errorf("round trip (%d,nil) = (%d,%v)", c.n, n, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("round trip error %v lost", c.err)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("round trip %v = %v", c.err, err)
		}
	}
}

func TestLogicalConnTrim(t *testing.T) {
	lc := &LogicalConn{}
	lc.out.Write(make([]byte, 1000))
	lc.trimOut(400)
	if lc.OutBuffered() != 600 || lc.outBase != 400 {
		t.Errorf("after trim(400): len=%d base=%d", lc.OutBuffered(), lc.outBase)
	}
	lc.trimOut(300) // stale ack: no effect
	if lc.OutBuffered() != 600 || lc.outBase != 400 {
		t.Error("stale ack changed state")
	}
	lc.trimOut(5000) // beyond buffered: clamp
	if lc.OutBuffered() != 0 || lc.outBase != 1000 {
		t.Errorf("after over-trim: len=%d base=%d", lc.OutBuffered(), lc.outBase)
	}

	// A 1 MiB stream in 1 KiB pieces, with ACK watermarks that alternately
	// lag the replica and run ahead of it, so the out buffer slides its
	// window many times. After every step the buffer must hold exactly the
	// stream bytes [outBase, generated), with outBase the watermark clamped
	// to what has been generated.
	const piece, total = 1 << 10, 1 << 20
	stream := genStream(total)
	s := &Secondary{}
	lc = &LogicalConn{}
	check := func(step string, gen, acked int) {
		t.Helper()
		base := min(acked, gen)
		if lc.outBase != uint64(base) || lc.OutBuffered() != gen-base {
			t.Fatalf("%s: base=%d buffered=%d, want %d and %d", step, lc.outBase, lc.OutBuffered(), base, gen-base)
		}
		if !bytes.Equal(lc.out.Bytes(), stream[base:gen]) {
			t.Fatalf("%s: out buffer is not stream[%d:%d]", step, base, gen)
		}
	}
	acked := 0
	for gen := piece; gen <= total; gen += piece {
		s.appendOut(lc, stream[gen-piece:gen])
		check(fmt.Sprintf("append to %d", gen), gen, acked)
		switch i := gen / piece; {
		case i%7 == 0: // the client acknowledges ahead of replay
			acked = gen + 3*piece
		case i%5 == 0: // a lagging watermark, up to 300 KiB behind
			acked = max(acked, gen-(i%300)*piece)
		default:
			continue
		}
		lc.trimOut(uint64(acked))
		check(fmt.Sprintf("ack %d at %d", acked, gen), gen, acked)
	}
}

// TestPromoteRestoresUnackedOutput promotes a logical connection whose out
// buffer has slid and checks the restored live connection holds exactly
// the unacknowledged output and the unconsumed input, in copies of its
// own.
func TestPromoteRestoresUnackedOutput(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("backup", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "backup", Params: kernel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	sec := NewSecondaryOpts(k, shm.NewFabric(s, 0).NewRing("sync", 0, 1<<20), SecondaryConfig{DeferPull: true})
	key := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 5000}
	const iss, irs = 1000, 7000
	input := []byte("GET /stream HTTP/1.1\r\n\r\n")
	sec.apply(shm.Message{Kind: syncConnMeta, Payload: connMeta{Key: key, ISS: iss, IRS: irs}})
	sec.apply(shm.Message{Kind: syncDataIn, Payload: dataIn{Key: key, Data: input}})
	lc := sec.conns[key]
	stream := genStream(1 << 20)
	for off := 0; off < len(stream); off += 1 << 10 {
		sec.appendOut(lc, stream[off:off+1<<10])
		sec.apply(shm.Message{Kind: syncAckOut, Payload: ackOut{Key: key, Acked: uint64(off * 3 / 4)}})
	}
	acked := int(lc.outBase)

	conns, err := sec.Promote(tcpstack.New(k, "server", tcpstack.DefaultParams()))
	if err != nil || len(conns) != 1 {
		t.Fatalf("Promote = %d conns, %v; want 1", len(conns), err)
	}
	c := conns[0]
	if c.BufferedOut() != lc.OutBuffered() || c.BufferedOut() != len(stream)-acked {
		t.Errorf("restored BufferedOut = %d, logical %d, want %d", c.BufferedOut(), lc.OutBuffered(), len(stream)-acked)
	}
	snap := c.Snapshot()
	if snap.SndUna != iss+1+uint64(acked) || !bytes.Equal(snap.SndData, stream[acked:]) {
		t.Errorf("restored send side: SndUna=%d with %d bytes, want %d with stream[%d:]", snap.SndUna, len(snap.SndData), iss+1+acked, acked)
	}
	if snap.RcvNxt != irs+1+uint64(len(input)) || !bytes.Equal(snap.RcvData, input) {
		t.Errorf("restored receive side: RcvNxt=%d data=%q", snap.RcvNxt, snap.RcvData)
	}
	// The live connection owns its bytes: scribbling over the logical
	// buffer must not reach it.
	clear(lc.out.Bytes())
	if !bytes.Equal(c.Snapshot().SndData, stream[acked:]) {
		t.Error("restored send queue aliases the logical out buffer")
	}
}

func genStream(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i>>10)
	}
	return b
}

func TestConnKeyString(t *testing.T) {
	k := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 5000}
	if k.String() != ":80<->client:5000" {
		t.Errorf("String = %q", k.String())
	}
}

func TestCoalesceMergesTailOnly(t *testing.T) {
	k1 := ConnKey{LocalPort: 80, RemoteHost: "c", RemotePort: 1}
	k2 := ConnKey{LocalPort: 80, RemoteHost: "c", RemotePort: 2}
	p := &Primary{cfg: SyncConfig{BatchUpdates: 8}}
	link := &syncLink{}
	p.links = append(p.links, link)

	// Seed one pending data-in entry for k1.
	link.pending = append(link.pending, syncPending{
		msg:  shm.Message{Kind: syncDataIn, Payload: dataIn{Key: k1, Data: []byte("abc")}, Size: 35},
		reps: 1,
	})
	link.pendingBytes = 35

	// Same key, same kind: appends into the tail entry.
	if !p.coalesce(link, syncDataIn, dataIn{Key: k1, Data: []byte("def")}) {
		t.Fatal("data-in for the same stream did not coalesce")
	}
	tail := link.pending[len(link.pending)-1]
	if d := tail.msg.Payload.(dataIn); string(d.Data) != "abcdef" {
		t.Errorf("merged data = %q, want abcdef", d.Data)
	}
	if tail.msg.Size != 38 || tail.reps != 2 || p.SyncCoalesced != 1 {
		t.Errorf("size=%d reps=%d coalesced=%d, want 38/2/1", tail.msg.Size, tail.reps, p.SyncCoalesced)
	}

	// Different key: must NOT merge (it is a different stream).
	if p.coalesce(link, syncDataIn, dataIn{Key: k2, Data: []byte("x")}) {
		t.Error("data-in for another connection coalesced")
	}
	// Different kind: must NOT merge.
	if p.coalesce(link, syncAckOut, ackOut{Key: k1, Acked: 10}) {
		t.Error("ack-out coalesced into a data-in entry")
	}

	// Ack-out entries collapse to the highest watermark; stale acks are
	// absorbed without rolling it back.
	link.pending = []syncPending{{msg: shm.Message{Kind: syncAckOut, Payload: ackOut{Key: k1, Acked: 100}, Size: 40}, reps: 1}}
	if !p.coalesce(link, syncAckOut, ackOut{Key: k1, Acked: 250}) {
		t.Fatal("higher ack-out did not coalesce")
	}
	if !p.coalesce(link, syncAckOut, ackOut{Key: k1, Acked: 180}) {
		t.Fatal("stale ack-out did not coalesce")
	}
	if a := link.pending[0].msg.Payload.(ackOut); a.Acked != 250 {
		t.Errorf("collapsed ack watermark = %d, want 250", a.Acked)
	}
	if link.pending[0].reps != 3 {
		t.Errorf("reps = %d, want 3", link.pending[0].reps)
	}

	// Only the tail is eligible: a newer entry of another kind fences off
	// older ones, preserving ring order exactly.
	link.pending = append(link.pending, syncPending{msg: shm.Message{Kind: syncPeerFin, Payload: peerFin{Key: k1}, Size: 32}, reps: 1})
	if p.coalesce(link, syncAckOut, ackOut{Key: k1, Acked: 300}) {
		t.Error("ack-out merged past an interleaved update, breaking order")
	}
}
