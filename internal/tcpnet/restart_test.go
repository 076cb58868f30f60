package tcpnet

// Regression (PR 5 satellite): after a server crash-restarts on the
// same address, a client's first Send hits the stale cached connection.
// Send must transparently redial-and-retry once instead of surfacing
// the error, so crash-restart schedules work over TCP.

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// restartServer closes srv and listens again on the same address,
// retrying briefly in case the kernel has not released the port yet.
func restartServer(t *testing.T, srv *Server, auto interface {
	Step(types.ProcID, wire.Message) []transport.Outgoing
}) *Server {
	t.Helper()
	id, addr := srv.ID(), srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var (
		next *Server
		err  error
	)
	for i := 0; i < 50; i++ {
		next, err = Listen(id, addr, auto)
		if err == nil {
			return next
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
	return nil
}

func TestSendRedialsAfterServerRestart(t *testing.T) {
	srv, err := Listen(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{srv.ID(): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	send := func(ts types.TS) error {
		return cl.Send(types.ServerID(0), wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: "v"}, W: types.Bottom()})
	}
	awaitAck := func(within time.Duration) bool {
		select {
		case env, ok := <-cl.Recv():
			return ok && env.Msg.(wire.PWAck).TS > 0
		case <-time.After(within):
			return false
		}
	}

	// Establish the connection.
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	if !awaitAck(2 * time.Second) {
		t.Fatal("no ack before restart")
	}

	// Crash-restart the server on the same address. The client still
	// holds the now-dead connection.
	srv = restartServer(t, srv, core.NewServer())
	defer srv.Close()

	// Sends across the restart must never error: the first write to
	// the dead socket may be silently buffered by TCP, but as soon as
	// the reset surfaces, Send must redial transparently rather than
	// fail. Eventually a send reaches the restarted server and is
	// acked.
	deadline := time.Now().Add(5 * time.Second)
	ts := types.TS(2)
	for time.Now().Before(deadline) {
		if err := send(ts); err != nil {
			t.Fatalf("Send surfaced a stale-connection error: %v", err)
		}
		ts++
		if awaitAck(100 * time.Millisecond) {
			return // reconnected and served
		}
	}
	t.Fatal("restarted server never reachable through the old client")
}

// A restart mid-workload: concurrent senders keep going, none of them
// observes an error, and the server answers again after the restart.
func TestConcurrentSendsSurviveRestart(t *testing.T) {
	srv, err := Listen(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{srv.ID(): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sendErr error
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts types.TS = 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := cl.Send(types.ServerID(0), wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: "v"}, W: types.Bottom()})
				if err != nil && !errors.Is(err, transport.ErrClosed) {
					mu.Lock()
					if sendErr == nil {
						sendErr = err
					}
					mu.Unlock()
					return
				}
				ts++
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Drain acks so nothing blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case _, ok := <-cl.Recv():
				if !ok {
					return
				}
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	srv = restartServer(t, srv, core.NewServer())
	defer srv.Close()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if sendErr != nil {
		t.Fatalf("a sender observed an error across the restart: %v", sendErr)
	}
}

// refusingDial wraps a client's dialer so its next n dials are refused,
// as a server mid-restart refuses them, and counts every attempt.
func refusingDial(c *Client, n int) *int {
	attempts := 0
	real := c.dial
	c.dial = func(addr string) (net.Conn, error) {
		attempts++
		if attempts <= n {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
		}
		return real(addr)
	}
	return &attempts
}

// A server crash-restarting on its address refuses dials for a moment.
// A client whose connection to it has just died must ride that window
// out instead of failing the send: the refusal is retried within the
// restart grace. The restart is modeled without timing: the live
// connection is dropped as the read loop does on EOF, and the dialer
// refuses the first redials.
func TestRedialRidesOutRestartWindow(t *testing.T) {
	srv, err := Listen(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{srv.ID(): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pw := wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom()}
	if err := cl.Send(srv.ID(), pw); err != nil {
		t.Fatal(err)
	}

	cc, err := cl.connFor(srv.ID())
	if err != nil {
		t.Fatal(err)
	}
	cl.dropConn(srv.ID(), cc)
	attempts := refusingDial(cl, 2)
	if err := cl.Send(srv.ID(), pw); err != nil {
		t.Fatalf("send across the restart window: %v", err)
	}
	if *attempts != 3 {
		t.Errorf("dial attempts = %d, want 2 refused + 1 accepted", *attempts)
	}
}

// The grace is only for a connection that just died: a server this
// client never reached fails fast on the first refusal.
func TestRefusedDialFailsFastWithoutLostConnection(t *testing.T) {
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	attempts := refusingDial(cl, 100)
	if err := cl.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1}); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("send to a refusing server = %v, want connection refused", err)
	}
	if *attempts != 1 {
		t.Errorf("dial attempts = %d, want 1", *attempts)
	}
}
