package shard

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// goldenMessages is the fixed sequence behind testdata/v1.syah: a first-
// exchange halo (everything sent), a sparse halo delta, an empty-payload
// frame and a counts frame with a skipped zero row.
func goldenMessages() []Message {
	first := []int32{0, 1, 2, 0, 1, 1}
	next := []int32{0, 1, 2, 1, 1, 1}
	return []Message{
		{Kind: MsgHalo, From: 0, Epoch: 1, Payload: encodeHalo(first, nil, 2)},
		{Kind: MsgHalo, From: 0, Epoch: 2, Payload: encodeHalo(next, first, 2)},
		{Kind: MsgHalo, From: 0, Epoch: 1 << 40, Payload: []byte{}},
		{Kind: MsgCounts, From: 0, Epoch: 3, Payload: encodeCounts([]int64{4, 9, 11}, [][]int64{{3, 5}, {0, 0}, {1, 0, 7}})},
	}
}

// TestV1GoldenStream pins the SYAH v1 bytes: what one TCPTransport writes to
// a peer for the fixed sequence equals the stream recorded before
// internal/frame existed, and a transport fed the recorded stream delivers
// the same messages.
func TestV1GoldenStream(t *testing.T) {
	golden := filepath.Join("testdata", "v1.syah")
	msgs := goldenMessages()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Write side: shard 0 sends to a bare listener standing in for shard 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := NewTCPTransport(0, []string{"127.0.0.1:0", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := tr.Send(ctx, 1, m); err != nil {
			t.Fatal(err)
		}
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	tr.Close() // closes the send connection: the peer reads to EOF
	got, err := io.ReadAll(c)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wrote %d bytes that differ from the recorded %d", len(got), len(want))
	}

	// Read side: the recorded stream, dialed into a fresh transport.
	rx, err := NewTCPTransport(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	pc, err := net.Dial("tcp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Write(want); err != nil {
		t.Fatal(err)
	}
	for i, wantMsg := range msgs {
		m, err := rx.Recv(ctx)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, wantMsg) {
			t.Errorf("message %d = %+v, want %+v", i, m, wantMsg)
		}
	}
}
