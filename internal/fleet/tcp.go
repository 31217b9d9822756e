// The TCP transport: workers dial the coordinator and speak a framed
// request/response protocol carrying exactly the loopback operations —
// lease, complete, fail. Frames reuse the wire CRC framing, request and
// response bodies the wire vocabulary, and the task/result payloads
// inside them are the same encoded messages the loopback path passes by
// value, so a TCP worker and a loopback worker are indistinguishable to
// the coordinator.

package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"easeio/internal/wire"
)

// Protocol operations. One byte at the head of each request body.
const (
	opLease    = 1
	opComplete = 2
	opFail     = 3
)

// ServeFleet accepts worker connections on ln and serves coordinator
// operations until ln is closed (the usual shutdown: close the listener,
// in-flight requests finish, workers reconnect-or-exit). Each connection
// is one worker's session and serves requests sequentially.
func ServeFleet(ln net.Listener, c *Coordinator) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveConn(conn, c)
	}
}

func serveConn(conn net.Conn, c *Coordinator) {
	defer conn.Close()
	for {
		req, err := wire.ReadFrame(conn)
		if err != nil {
			// EOF (or a torn frame from a dying worker) ends the session;
			// the lease TTL recovers anything it held.
			return
		}
		resp, err := handleRequest(c, req)
		if err != nil {
			return
		}
		if err := wire.WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// handleRequest executes one framed request and builds its response.
// Coordinator-level rejections (unknown job, bad payload, a failed WAL
// append) travel inside the response; only a malformed request tears the
// connection down.
func handleRequest(c *Coordinator, req []byte) ([]byte, error) {
	d := wire.NewDecoder(req)
	op := d.Byte()
	worker := d.String()
	switch op {
	case opLease:
		if err := d.Err(); err != nil {
			return nil, err
		}
		task, ok := c.Lease(worker)
		return wire.AppendBytes(wire.AppendBool(nil, ok), task), nil
	case opComplete:
		payload := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return ackResponse(c.Complete(worker, payload)), nil
	case opFail:
		job := d.Uvarint()
		shard := int(d.Uvarint())
		msg := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return ackResponse(c.FailShard(worker, job, shard, msg)), nil
	}
	return nil, fmt.Errorf("fleet: unknown request op %d", op)
}

// ackResponse encodes a complete/fail outcome: ok bool, then the
// rejection message when not ok.
func ackResponse(err error) []byte {
	if err == nil {
		return wire.AppendBool(nil, true)
	}
	resp := wire.AppendBool(nil, false)
	return wire.AppendString(resp, err.Error())
}

// tcpClient is one worker's connection to the coordinator.
type tcpClient struct {
	conn net.Conn
	name string
}

func dialFleet(addr, name string) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpClient{conn: conn, name: name}, nil
}

func (t *tcpClient) close() { t.conn.Close() }

// call sends one framed request and reads its framed response.
func (t *tcpClient) call(req []byte) ([]byte, error) {
	if err := wire.WriteFrame(t.conn, req); err != nil {
		return nil, err
	}
	resp, err := wire.ReadFrame(t.conn)
	if err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	return resp, err
}

// wake is nil: the protocol has no push, so an idle TCP worker polls.
func (t *tcpClient) wake() <-chan struct{} { return nil }

// lease asks for one task; ok=false means no pending work.
func (t *tcpClient) lease() (task []byte, ok bool, err error) {
	req := wire.AppendString([]byte{opLease}, t.name)
	resp, err := t.call(req)
	if err != nil {
		return nil, false, err
	}
	d := wire.NewDecoder(resp)
	ok = d.Bool()
	task = d.Bytes()
	return task, ok, d.Err()
}

// complete ships a shard result.
func (t *tcpClient) complete(payload []byte) error {
	req := wire.AppendString([]byte{opComplete}, t.name)
	req = wire.AppendBytes(req, payload)
	return t.ack(req)
}

// fail reports a failed shard attempt.
func (t *tcpClient) fail(job uint64, shard int, msg string) error {
	req := wire.AppendString([]byte{opFail}, t.name)
	req = wire.AppendUvarint(req, job)
	req = wire.AppendUvarint(req, uint64(shard))
	req = wire.AppendString(req, msg)
	return t.ack(req)
}

func (t *tcpClient) ack(req []byte) error {
	resp, err := t.call(req)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(resp)
	if ok := d.Bool(); d.Err() == nil && !ok {
		return fmt.Errorf("fleet: coordinator rejected request: %s", d.String())
	}
	return d.Err()
}

// RunTCPWorker dials the coordinator at addr and runs the worker loop —
// lease, execute, report — until ctx is cancelled. The protocol has no
// wake-up, so an idle TCP worker leases again every poll: poll bounds how
// long a newly submitted shard waits for it. Connection failures
// redial with a flat backoff, so a coordinator restart (the crash the
// WAL exists for) only pauses the worker. It returns nil on
// cancellation.
func RunTCPWorker(ctx context.Context, addr, name string, src BlueprintSource, poll time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	redial := poll
	if redial < 100*time.Millisecond {
		redial = 100 * time.Millisecond
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		cl, err := dialFleet(addr, name)
		if err != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(redial):
			}
			continue
		}
		// A broken connection or a refused report ends only this
		// connection's loop: close it and redial.
		_ = workLoop(ctx, cl, src, poll)
		cl.close()
	}
}
