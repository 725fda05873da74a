package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"abase"
	"abase/internal/lavastore"
)

// env is one running system under test: a cluster serving RESP on a
// loopback port, with the traffic monitor ticking as abase-server runs
// it.
type env struct {
	w       *workload
	cluster *abase.Cluster
	server  io.Closer
	addr    string
	main    *abase.Tenant
	other   *abase.Tenant // the aggressor, on neighbor only

	stopMonitor chan struct{}
	monitorDone sync.WaitGroup
}

// startEnv starts a fresh cluster for w, creates its tenants and
// preloads the main tenant's keys. fs is nil except in the traced run.
func startEnv(w *workload, vals *values, fs lavastore.FS) (*env, error) {
	cfg := clusterBase
	cfg.NodeCacheBytes = w.nodeCacheBytes
	cfg.FS = fs
	cluster, err := abase.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, cluster: cluster, stopMonitor: make(chan struct{})}
	e.main, err = cluster.CreateTenant(abase.TenantSpec{
		Name: w.mainTenant(), QuotaRU: mainQuotaRU,
		Partitions: tenantPartitions, Proxies: tenantProxies,
		ProxyCacheBytes: w.proxyCacheBytes,
	})
	if err == nil && w.neighbor {
		e.other, err = cluster.CreateTenant(abase.TenantSpec{
			Name: "aggressor", QuotaRU: aggressorQuotaRU,
			Partitions: tenantPartitions, Proxies: tenantProxies,
		})
	}
	if err != nil {
		cluster.Close()
		return nil, err
	}
	addr, srv, err := cluster.Serve("127.0.0.1:0", "")
	if err != nil {
		cluster.Close()
		return nil, err
	}
	e.addr, e.server = addr, srv

	e.monitorDone.Add(1)
	go func() {
		defer e.monitorDone.Done()
		ticker := time.NewTicker(monitorEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				cluster.MonitorTrafficOnce(monitorEvery)
			case <-e.stopMonitor:
				return
			}
		}
	}()

	if err := e.preload(vals); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// preload writes every key of the main tenant at sequence 0.
func (e *env) preload(vals *values) error {
	const batch = 256
	ctx := context.Background()
	client := e.main.Client()
	kvs := make([]abase.KV, 0, batch)
	for i := 0; i < e.w.keys; i++ {
		kvs = append(kvs, abase.KV{
			Key:   appendKey(nil, uint32(i)),
			Value: vals.append(nil, uint32(i), 0),
		})
		if len(kvs) == batch || i == e.w.keys-1 {
			if err := client.MSetPairs(ctx, kvs); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			kvs = kvs[:0]
		}
	}
	return nil
}

// dial opens one connection and selects tenant on it.
func (e *env) dial(tenant string) (net.Conn, error) {
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		return nil, err
	}
	cmd := fmt.Sprintf("*2\r\n$4\r\nAUTH\r\n$%d\r\n%s\r\n", len(tenant), tenant)
	if _, err := conn.Write([]byte(cmd)); err != nil {
		conn.Close()
		return nil, err
	}
	reply := make([]byte, 5)
	if _, err := io.ReadFull(conn, reply); err != nil || string(reply) != "+OK\r\n" {
		conn.Close()
		return nil, fmt.Errorf("AUTH %s: reply %q, err %v", tenant, reply, err)
	}
	return conn, nil
}

// close stops the monitor, the server and the cluster, and waits for
// each to end.
func (e *env) close() {
	close(e.stopMonitor)
	e.monitorDone.Wait()
	e.server.Close()
	e.cluster.Close()
}
