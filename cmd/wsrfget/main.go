// Command wsrfget is the generic WSRF client tool: because every
// resource in the grid exposes the same standardized port types, one
// tool can read, query and destroy any of them — the "plumbing
// ... provided to all clients and work on all services" of the paper's
// §5. Point it at any EPR printed by gridsub, gridmaster or a service
// log.
//
//	wsrfget -epr 'http://host:8700/SchedulerService?{urn:uvacg:wsrf}ResourceID=...' -doc
//	wsrfget -epr '<epr>' -prop '{urn:uvacg:es}Status'
//	wsrfget -epr '<epr>' -query '/JobState[@status="Completed"]'
//	wsrfget -epr '<epr>' -destroy
//	wsrfget -epr '<epr>' -ttl 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

func main() {
	eprFlag := flag.String("epr", "", "target WS-Resource EPR (canonical string form; required)")
	prop := flag.String("prop", "", "GetResourceProperty: Clark-notation QName")
	query := flag.String("query", "", "QueryResourceProperties: XPath-lite expression")
	doc := flag.Bool("doc", false, "GetResourcePropertyDocument: print the whole document")
	destroy := flag.Bool("destroy", false, "destroy the resource")
	ttl := flag.Duration("ttl", 0, "SetTerminationTime this far in the future")
	timeout := flag.Duration("timeout", 15*time.Second, "request deadline")
	flag.Parse()

	if *eprFlag == "" {
		log.Fatal("wsrfget: -epr is required")
	}
	epr, err := wsa.ParseEPRString(*eprFlag)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rc := wsrf.NewResourceClient(transport.NewClient(), epr)

	switch {
	case *prop != "":
		name, err := xmlutil.ParseQName(*prop)
		if err != nil {
			log.Fatal(err)
		}
		values, err := rc.GetProperty(ctx, name)
		if err != nil {
			log.Fatal(describe(err))
		}
		for _, v := range values {
			fmt.Println(v)
		}
	case *query != "":
		matches, err := rc.Query(ctx, *query)
		if err != nil {
			log.Fatal(describe(err))
		}
		for _, m := range matches {
			fmt.Println(m)
		}
		if len(matches) == 0 {
			fmt.Println("(no matches)")
		}
	case *doc:
		document, err := rc.GetDocument(ctx)
		if err != nil {
			log.Fatal(describe(err))
		}
		fmt.Println(document)
	case *destroy:
		if err := rc.Destroy(ctx); err != nil {
			log.Fatal(describe(err))
		}
		fmt.Println("destroyed")
	case *ttl != 0:
		when := time.Now().Add(*ttl)
		if err := rc.SetTerminationTime(ctx, when); err != nil {
			log.Fatal(describe(err))
		}
		fmt.Printf("termination scheduled for %s\n", when.UTC().Format(time.RFC3339))
	default:
		log.Fatal("wsrfget: pick one of -prop, -query, -doc, -destroy, -ttl")
	}
}

// describe unwraps typed WSRF faults for readable CLI errors.
func describe(err error) string {
	if bf, ok := wsrf.BaseFaultFromError(err); ok {
		return fmt.Sprintf("%s: %s", bf.ErrorCode, bf.Description)
	}
	return err.Error()
}
