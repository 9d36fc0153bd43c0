package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
)

// The TCP stream is an internal/frame container: the header once per
// connection, then one frame per message. A frame payload is a
// self-contained message: kind (u8), from (u32), epoch (u64), body.
const (
	tcpMagic   = 0x53594148 // "SYAH"
	tcpVersion = 1
)

// wireFormat bounds one frame at 64 MiB (halo deltas and counts of
// bench-scale graphs sit far below it); a longer length prefix is stream
// corruption.
var wireFormat = frame.Format{Magic: tcpMagic, Version: tcpVersion, MaxPayload: 64 << 20, Name: "shard stream"}

// Dial retry/backoff: a peer's listener may come up after ours (process
// start order is not coordinated), so connection attempts back off
// geometrically up to the budget before failing.
const (
	tcpDialBackoffMin = 10 * time.Millisecond
	tcpDialBackoffMax = 250 * time.Millisecond
	tcpDialBudget     = 5 * time.Second
)

// TCPTransport is the distributed Transport: shard id listens on
// addrs[id], accepts frames from any peer into one inbox, and dials peers
// lazily on first Send (with retry/backoff while the peer's listener comes
// up). One connection per direction; sends to one peer are serialized.
type TCPTransport struct {
	id    int
	addrs []string
	ln    net.Listener
	inbox chan Message

	mu    sync.Mutex // guards conns and accepted
	conns map[int]net.Conn
	acc   []net.Conn

	done    chan struct{}
	once    sync.Once
	readers sync.WaitGroup
}

// NewTCPTransport creates shard id's endpoint of an N-shard TCP group with
// listen addresses addrs (len(addrs) = N). The listener starts
// immediately; peer connections are dialed on first Send.
func NewTCPTransport(id int, addrs []string) (*TCPTransport, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("shard: tcp transport id %d outside addrs (%d)", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("shard %d: listen %s: %w", id, addrs[id], err)
	}
	t := &TCPTransport{
		id:    id,
		addrs: addrs,
		ln:    ln,
		inbox: make(chan Message, 4*len(addrs)),
		conns: map[int]net.Conn{},
		done:  make(chan struct{}),
	}
	go t.acceptLoop()
	return t, nil
}

// Addr reports the listener's bound address (useful with ":0" addresses).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		select {
		case <-t.done:
			t.mu.Unlock()
			c.Close()
			return
		default:
		}
		t.acc = append(t.acc, c)
		t.mu.Unlock()
		t.readers.Add(1)
		go t.readLoop(c)
	}
}

// readLoop verifies the stream header then feeds frames into the inbox
// until the connection tears or the transport closes. Frame corruption
// (bad CRC, oversized length, undecodable payload) closes the connection:
// the peer's next exchange will fail loudly rather than sample against a
// silently dropped halo.
func (t *TCPTransport) readLoop(c net.Conn) {
	defer t.readers.Done()
	defer c.Close()
	hdr := make([]byte, frame.HeaderSize)
	if _, err := io.ReadFull(c, hdr); err != nil || wireFormat.CheckHeader(hdr) != nil {
		return
	}
	for {
		payload, err := wireFormat.Read(c)
		if err != nil {
			return
		}
		m, ok := decodeMessage(payload)
		if !ok {
			return
		}
		select {
		case t.inbox <- m:
		case <-t.done:
			return
		}
	}
}

// conn returns (dialing if needed) the send connection to peer `to`.
func (t *TCPTransport) conn(ctx context.Context, to int) (net.Conn, error) {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	var (
		c       net.Conn
		err     error
		backoff = tcpDialBackoffMin
	)
	deadline := time.Now().Add(tcpDialBudget)
	for {
		d := net.Dialer{}
		c, err = d.DialContext(ctx, "tcp", t.addrs[to])
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial shard %d at %s: %w", to, t.addrs[to], err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.done:
			return nil, errTransportClosed{t.id}
		}
		if backoff *= 2; backoff > tcpDialBackoffMax {
			backoff = tcpDialBackoffMax
		}
	}
	if _, err := c.Write(wireFormat.AppendHeader(nil)); err != nil {
		c.Close()
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		c.Close()
		return nil, errTransportClosed{t.id}
	default:
	}
	if prior, ok := t.conns[to]; ok { // lost a dial race; keep the first
		c.Close()
		return prior, nil
	}
	t.conns[to] = c
	return c, nil
}

func (t *TCPTransport) Send(ctx context.Context, to int, m Message) error {
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("no shard %d", to)
	}
	select {
	case <-t.done:
		return errTransportClosed{t.id}
	default:
	}
	c, err := t.conn(ctx, to)
	if err != nil {
		return fmt.Errorf("shard %d unreachable: %w", to, err)
	}
	frm := frame.Append(nil, encodeMessage(m))
	t.mu.Lock()
	_, err = c.Write(frm)
	if err != nil {
		// A torn connection is not retried: drop it so a later Send redials,
		// and surface the failure to the exchange.
		c.Close()
		if t.conns[to] == c {
			delete(t.conns, to)
		}
	}
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("send to shard %d: %w", to, err)
	}
	return nil
}

func (t *TCPTransport) Recv(ctx context.Context) (Message, error) {
	select {
	case m := <-t.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-t.inbox:
		return m, nil
	case <-t.done:
		return Message{}, errTransportClosed{t.id}
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Close shuts the listener and every connection down and unblocks pending
// Recv calls. Idempotent.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for _, c := range t.conns {
			c.Close()
		}
		t.conns = map[int]net.Conn{}
		for _, c := range t.acc {
			c.Close()
		}
		t.acc = nil
		t.mu.Unlock()
	})
	t.readers.Wait()
	return nil
}

// encodeMessage flattens a Message into a self-contained frame payload.
func encodeMessage(m Message) []byte {
	out := make([]byte, 0, 13+len(m.Payload))
	out = append(out, byte(m.Kind))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.From))
	out = binary.LittleEndian.AppendUint64(out, m.Epoch)
	return append(out, m.Payload...)
}

// decodeMessage parses a frame payload; ok=false on truncation.
func decodeMessage(p []byte) (Message, bool) {
	c := frame.Cursor{Buf: p}
	var m Message
	m.Kind = MsgKind(c.U8())
	m.From = int(c.U32())
	m.Epoch = c.U64()
	m.Payload = c.Bytes(len(c.Buf))
	return m, c.Err == nil
}
