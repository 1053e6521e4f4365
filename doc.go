// Package uvacg is a from-scratch Go reproduction of the remote job
// execution testbed of "Exploiting WSRF and WSRF.NET for Remote Job
// Execution in Grid Environments" (Wasson & Humphrey, IPDPS 2005): a
// complete WS-Resource Framework runtime (WS-ResourceProperties,
// WS-ResourceLifetime, WS-BaseFaults, WS-ServiceGroup), the
// WS-Notification family (WS-Topics, WS-BaseNotification,
// WS-BrokeredNotification), and on top of them the five testbed
// services — File System Service, Execution Service, Notification
// Broker, Node Info Service and Scheduler Service — plus the ProcSpawn
// and Processor Utilization machine services and a client library.
//
// Start at internal/core for the public API (Grid, Client, JobSet), at
// DESIGN.md for the system inventory, and at EXPERIMENTS.md for the
// paper's experiments, each a `go test -bench` family beside the package
// it measures; bench/ holds the system benchmark on real daemons.
package uvacg
