// Package wsrf is the WS-Resource Framework runtime — the Go counterpart
// of the WSRF.NET toolkit the paper evaluates. It provides:
//
//   - the wrapper pipeline of paper Fig. 1: each invocation's
//     EndpointReference is resolved to a stateful resource, the resource's
//     state document is loaded from the database, the method runs against
//     it, and changed state is saved back;
//   - the WSRF port types: WS-ResourceProperties (Get/GetMultiple/
//     Query/Set), WS-ResourceLifetime (Destroy/SetTerminationTime plus a
//     termination-time reaper), WS-ServiceGroup, and WS-BaseFaults;
//   - the "WS-Resource as state" abstraction via database-backed
//     ResourceHomes, and hooks for "WS-Resource as process" resources
//     whose properties are computed from live handles (paper §3).
//
// Service authors compose port types and register their own methods and
// computed resource properties — the declarative equivalent of the
// [WSRFPortType], [Resource] and [ResourceProperty] attributes of
// paper Fig. 2.
package wsrf

import "uvacg/internal/xmlutil"

// Specification namespaces (2004 draft era, matching WSRF.NET 1.1).
const (
	// NSResourceProperties is the WS-ResourceProperties namespace.
	NSResourceProperties = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceProperties-1.2-draft-01.xsd"
	// NSResourceLifetime is the WS-ResourceLifetime namespace.
	NSResourceLifetime = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceLifetime-1.2-draft-01.xsd"
	// NSBaseFaults is the WS-BaseFaults namespace.
	NSBaseFaults = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-BaseFaults-1.2-draft-01.xsd"
	// NSServiceGroup is the WS-ServiceGroup namespace.
	NSServiceGroup = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ServiceGroup-1.2-draft-01.xsd"
	// NSImpl is this implementation's namespace, used for the resource
	// identifier reference property and factory messages.
	NSImpl = "urn:uvacg:wsrf"
)

// Action URIs for the WSRF-defined port types.
const (
	ActionGetResourceProperty           = NSResourceProperties + "/GetResourceProperty"
	ActionGetResourcePropertyDocument   = NSResourceProperties + "/GetResourcePropertyDocument"
	ActionGetMultipleResourceProperties = NSResourceProperties + "/GetMultipleResourceProperties"
	ActionQueryResourceProperties       = NSResourceProperties + "/QueryResourceProperties"
	ActionSetResourceProperties         = NSResourceProperties + "/SetResourceProperties"
	ActionDestroy                       = NSResourceLifetime + "/Destroy"
	ActionSetTerminationTime            = NSResourceLifetime + "/SetTerminationTime"
)

// XPathDialect identifies this implementation's XPath-lite query dialect.
const XPathDialect = "urn:uvacg:wsrf:xpath-lite"

// QResourceID is the reference property naming a resource in an EPR —
// the "unique name given in the <ReferenceProperties> element" the paper
// describes WSRF.NET keying its database on.
var QResourceID = xmlutil.Q(NSImpl, "ResourceID")

// Shared message QNames.
var (
	qGetResourceProperty  = xmlutil.Q(NSResourceProperties, "GetResourceProperty")
	qGetRPDocument        = xmlutil.Q(NSResourceProperties, "GetResourcePropertyDocument")
	qGetRPDocumentResp    = xmlutil.Q(NSResourceProperties, "GetResourcePropertyDocumentResponse")
	qGetRPResponse        = xmlutil.Q(NSResourceProperties, "GetResourcePropertyResponse")
	qGetMultiple          = xmlutil.Q(NSResourceProperties, "GetMultipleResourceProperties")
	qGetMultipleResponse  = xmlutil.Q(NSResourceProperties, "GetMultipleResourcePropertiesResponse")
	qResourceProperty     = xmlutil.Q(NSResourceProperties, "ResourceProperty")
	qQueryRP              = xmlutil.Q(NSResourceProperties, "QueryResourceProperties")
	qQueryRPResponse      = xmlutil.Q(NSResourceProperties, "QueryResourcePropertiesResponse")
	qQueryExpression      = xmlutil.Q(NSResourceProperties, "QueryExpression")
	qSetRP                = xmlutil.Q(NSResourceProperties, "SetResourceProperties")
	qSetRPResponse        = xmlutil.Q(NSResourceProperties, "SetResourcePropertiesResponse")
	qInsert               = xmlutil.Q(NSResourceProperties, "Insert")
	qUpdate               = xmlutil.Q(NSResourceProperties, "Update")
	qDelete               = xmlutil.Q(NSResourceProperties, "Delete")
	qResourcePropertyName = xmlutil.Q("", "resourceProperty")
	qDialect              = xmlutil.Q("", "Dialect")

	qDestroy             = xmlutil.Q(NSResourceLifetime, "Destroy")
	qDestroyResponse     = xmlutil.Q(NSResourceLifetime, "DestroyResponse")
	qSetTermTime         = xmlutil.Q(NSResourceLifetime, "SetTerminationTime")
	qSetTermTimeResponse = xmlutil.Q(NSResourceLifetime, "SetTerminationTimeResponse")
	qRequestedTermTime   = xmlutil.Q(NSResourceLifetime, "RequestedTerminationTime")
	qNewTermTime         = xmlutil.Q(NSResourceLifetime, "NewTerminationTime")
	qCurrentTime         = xmlutil.Q(NSResourceLifetime, "CurrentTime")

	// QTerminationTime is the resource property recording scheduled
	// destruction, stored in the state document.
	QTerminationTime = xmlutil.Q(NSResourceLifetime, "TerminationTime")
)
