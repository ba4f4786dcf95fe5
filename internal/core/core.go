// Package core is the single-flow public face of the H-RMC library: it
// gives applications the familiar blocking Write/Read/Close socket
// feel of the kernel implementation's BSD interface over any
// Transport.
//
// Since the session layer landed there is exactly one wall-clock
// driver implementation: internal/session hosts N concurrent flows
// over one driver and one receive loop per transport, and each core
// Sender/Receiver is a thin wrapper around a private one-flow Session.
// Programs multiplexing many groups should use internal/session
// directly. The same sans-I/O machines also run, unchanged, under the
// discrete-event simulator in internal/netsim — the Go analogue of the
// paper importing the H-RMC kernel code directly into its CSIM
// simulation.
//
// A minimal session:
//
//	hub := transport.NewHub()
//	snd := core.NewSender(hub.Endpoint(), sender.Config{})
//	rcv := core.NewReceiver(hub.Endpoint(), receiver.Config{})
//	go func() { snd.Write(data); snd.Close() }()
//	io.ReadAll(rcv)
package core

import (
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/transport"
)

// ErrAborted is returned by operations on an aborted connection.
var ErrAborted = session.ErrAborted

// newFlowSession builds the private one-flow session backing a core
// connection.
func newFlowSession() *session.Session {
	return session.New(session.Config{})
}

// Sender is a reliable-multicast sending connection.
type Sender struct {
	sess *session.Session
	f    *session.SenderFlow
}

// NewSender opens a sending connection over tr and starts its driver
// loops. The connection owns tr and closes it on Close/Abort.
func NewSender(tr transport.Transport, cfg sender.Config) *Sender {
	sess := newFlowSession()
	f, err := sess.OpenSender(tr, cfg)
	if err != nil {
		// A fresh one-flow session cannot have port conflicts.
		panic("core: " + err.Error())
	}
	return &Sender{sess: sess, f: f}
}

// Write sends b on the multicast stream, blocking while the send window
// is full. It returns len(b) unless the connection is aborted.
func (s *Sender) Write(b []byte) (int, error) { return s.f.Write(b) }

// Close marks the end of the stream and blocks until every receiver is
// known to hold all data (the send window fully releases).
func (s *Sender) Close() error {
	err := s.f.Close()
	_ = s.sess.Close()
	return err
}

// Abort tears the connection down without waiting for delivery.
func (s *Sender) Abort() {
	s.f.Abort()
	s.sess.Abort()
}

// Stats returns the sender's protocol counters.
func (s *Sender) Stats() *stats.Sender { return s.f.Stats() }

// Members returns the number of receivers currently joined.
func (s *Sender) Members() int { return s.f.Members() }

// Receiver is a reliable-multicast receiving connection implementing
// io.Reader semantics: Read blocks for data and returns io.EOF at the
// end of the stream.
type Receiver struct {
	sess *session.Session
	f    *session.ReceiverFlow
}

// NewReceiver opens a receiving connection over tr and starts its
// driver loops. The connection owns tr and closes it on Close.
func NewReceiver(tr transport.Transport, cfg receiver.Config) *Receiver {
	sess := newFlowSession()
	f, err := sess.OpenReceiver(tr, cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	return &Receiver{sess: sess, f: f}
}

// Read delivers in-order stream bytes, blocking until data is available.
// It returns io.EOF once the whole stream has been consumed.
func (r *Receiver) Read(b []byte) (int, error) { return r.f.Read(b) }

// Close tears the receiving connection down.
func (r *Receiver) Close() error {
	_ = r.f.Close()
	r.sess.Abort()
	return nil
}

// Stats returns the receiver's protocol counters.
func (r *Receiver) Stats() *stats.Receiver { return r.f.Stats() }
