package main

import (
	"repro/basil"
	"repro/internal/benchharness"
)

// basilSystem adapts a basil.Cluster to benchharness.System through the
// public API only (NewCluster, Load, NewClient, Begin/Read/Write/Commit).
// Unlike benchharness.BasilSystem it exposes the clients it hands out, so
// their protocol counters can be read at phase boundaries.
type basilSystem struct {
	c       *basil.Cluster
	clients []*basil.Client
}

func (s *basilSystem) Name() string                  { return "basil" }
func (s *basilSystem) Load(key string, value []byte) { s.c.Load(key, value) }
func (s *basilSystem) Close()                        { s.c.Close() }

func (s *basilSystem) NewSession() benchharness.Session {
	c := s.c.NewClient()
	s.clients = append(s.clients, c)
	return basilSession{c}
}

type basilSession struct{ c *basil.Client }

func (s basilSession) Begin() benchharness.SysTx { return basilTx{s.c.Begin()} }

// basilTx is a basil.Txn as a harness transaction; its Meta method feeds
// the DSG check.
type basilTx struct{ *basil.Txn }
