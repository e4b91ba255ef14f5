#include "io/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "util/trace.h"

namespace cfs {
namespace {

constexpr int format_version = 1;

JsonValue geo_json(const GeoPoint& p) {
  JsonValue::Object o;
  o.emplace("lat", p.lat_deg);
  o.emplace("lon", p.lon_deg);
  return JsonValue(std::move(o));
}

GeoPoint geo_from(const JsonValue& v) {
  return GeoPoint{v.at("lat").as_number(), v.at("lon").as_number()};
}

template <class IdType>
JsonValue id_json(IdType id) {
  if (!id.valid()) return JsonValue(nullptr);
  return JsonValue(id.value);
}

template <class IdType>
IdType id_from(const JsonValue& v) {
  if (v.is_null()) return IdType::invalid();
  return IdType(static_cast<std::uint32_t>(v.as_int()));
}

JsonValue prefix_json(const Prefix& p) { return JsonValue(p.to_string()); }

Prefix prefix_from(const JsonValue& v) {
  const auto parsed = Prefix::parse(v.as_string());
  if (!parsed) throw std::runtime_error("bad prefix: " + v.as_string());
  return *parsed;
}

JsonValue addr_json(Ipv4 a) { return JsonValue(a.to_string()); }

Ipv4 addr_from(const JsonValue& v) {
  const auto parsed = Ipv4::parse(v.as_string());
  if (!parsed) throw std::runtime_error("bad address: " + v.as_string());
  return *parsed;
}

template <class Enum>
JsonValue enum_json(Enum e) {
  return JsonValue(static_cast<int>(e));
}

template <class Enum>
Enum enum_from(const JsonValue& v) {
  return static_cast<Enum>(v.as_int());
}

JsonValue fault_metrics_json(const FaultMetrics& f) {
  JsonValue::Object o;
  o.emplace("traces_attempted", static_cast<std::uint64_t>(f.traces_attempted));
  o.emplace("traces_kept", static_cast<std::uint64_t>(f.traces_kept));
  o.emplace("traces_unreachable",
            static_cast<std::uint64_t>(f.traces_unreachable));
  o.emplace("retries", static_cast<std::uint64_t>(f.retries));
  o.emplace("failovers", static_cast<std::uint64_t>(f.failovers));
  o.emplace("circuits_opened", static_cast<std::uint64_t>(f.circuits_opened));
  o.emplace("probes_abandoned",
            static_cast<std::uint64_t>(f.probes_abandoned));
  o.emplace("probes_skipped_open_circuit",
            static_cast<std::uint64_t>(f.probes_skipped_open_circuit));
  o.emplace("probe_timeouts", static_cast<std::uint64_t>(f.probe_timeouts));
  o.emplace("lg_bans", static_cast<std::uint64_t>(f.lg_bans));
  o.emplace("records_withheld",
            static_cast<std::uint64_t>(f.records_withheld));
  o.emplace("wall_ms", f.wall_ms);
  return JsonValue(std::move(o));
}

FaultMetrics fault_metrics_from(const JsonValue& v) {
  FaultMetrics f;
  const auto count = [&](const char* key) {
    return static_cast<std::size_t>(v.at(key).as_int());
  };
  f.traces_attempted = count("traces_attempted");
  f.traces_kept = count("traces_kept");
  f.traces_unreachable = count("traces_unreachable");
  f.retries = count("retries");
  f.failovers = count("failovers");
  f.circuits_opened = count("circuits_opened");
  f.probes_abandoned = count("probes_abandoned");
  f.probes_skipped_open_circuit = count("probes_skipped_open_circuit");
  f.probe_timeouts = count("probe_timeouts");
  f.lg_bans = count("lg_bans");
  f.records_withheld = count("records_withheld");
  // Reports written before wall-time accounting lack the key.
  if (const JsonValue* wall = v.find("wall_ms")) f.wall_ms = wall->as_number();
  return f;
}

// Trace-registry snapshot covering the run (util/trace.h). Lives inside
// the `metrics` subtree so byte-equality comparisons, which already cut
// that subtree for its wall-clock content, are unaffected.
JsonValue registry_json(const MetricsSnapshot& snap) {
  JsonValue::Object counters;
  for (const auto& [name, value] : snap.counters) counters.emplace(name, value);
  JsonValue::Object gauges;
  for (const auto& [name, value] : snap.gauges) gauges.emplace(name, value);
  JsonValue::Object timers;
  for (const auto& [name, timer] : snap.timers) {
    JsonValue::Object t;
    t.emplace("count", timer.count);
    t.emplace("total_ms", timer.total_ms);
    timers.emplace(name, std::move(t));
  }
  JsonValue::Object o;
  o.emplace("counters", std::move(counters));
  o.emplace("gauges", std::move(gauges));
  o.emplace("timers", std::move(timers));
  return JsonValue(std::move(o));
}

MetricsSnapshot registry_from(const JsonValue& v) {
  MetricsSnapshot snap;
  if (const JsonValue* counters = v.find("counters"))
    for (const auto& [name, value] : counters->as_object())
      snap.counters.emplace(name,
                            static_cast<std::uint64_t>(value.as_int()));
  if (const JsonValue* gauges = v.find("gauges"))
    for (const auto& [name, value] : gauges->as_object())
      snap.gauges.emplace(name, value.as_number());
  if (const JsonValue* timers = v.find("timers"))
    for (const auto& [name, value] : timers->as_object()) {
      MetricsSnapshot::Timer t;
      t.count = static_cast<std::uint64_t>(value.at("count").as_int());
      t.total_ms = value.at("total_ms").as_number();
      snap.timers.emplace(name, t);
    }
  return snap;
}

JsonValue metrics_json(const CfsMetrics& m) {
  JsonValue::Object o;
  o.emplace("incremental", m.incremental);
  o.emplace("initial_classify_ms", m.initial_classify_ms);
  o.emplace("initial_traces", static_cast<std::uint64_t>(m.initial_traces));
  o.emplace("initial_observations",
            static_cast<std::uint64_t>(m.initial_observations));
  o.emplace("alias_refreshes", static_cast<std::uint64_t>(m.alias_refreshes));
  o.emplace("reclassified_traces",
            static_cast<std::uint64_t>(m.reclassified_traces));
  o.emplace("reclassified_observations",
            static_cast<std::uint64_t>(m.reclassified_observations));
  o.emplace("replayed_observations",
            static_cast<std::uint64_t>(m.replayed_observations));
  o.emplace("total_ms", m.total_ms);
  o.emplace("threads", static_cast<std::uint64_t>(m.threads));
  o.emplace("faults", fault_metrics_json(m.faults));
  o.emplace("registry", registry_json(m.registry));

  JsonValue::Array rows;
  for (const IterationMetrics& r : m.iterations) {
    JsonValue::Object row;
    row.emplace("iteration", static_cast<std::uint64_t>(r.iteration));
    row.emplace("classify_ms", r.classify_ms);
    row.emplace("alias_ms", r.alias_ms);
    row.emplace("reclassify_ms", r.reclassify_ms);
    row.emplace("constrain_ms", r.constrain_ms);
    row.emplace("followup_ms", r.followup_ms);
    row.emplace("alias_refreshed", r.alias_refreshed);
    row.emplace("observations", static_cast<std::uint64_t>(r.observations));
    row.emplace("interfaces", static_cast<std::uint64_t>(r.interfaces));
    row.emplace("resolved", static_cast<std::uint64_t>(r.resolved));
    row.emplace("classified_observations",
                static_cast<std::uint64_t>(r.classified_observations));
    row.emplace("reclassified_traces",
                static_cast<std::uint64_t>(r.reclassified_traces));
    row.emplace("replayed_observations",
                static_cast<std::uint64_t>(r.replayed_observations));
    row.emplace("dirty_observations",
                static_cast<std::uint64_t>(r.dirty_observations));
    row.emplace("constrained_observations",
                static_cast<std::uint64_t>(r.constrained_observations));
    row.emplace("alias_sets_processed",
                static_cast<std::uint64_t>(r.alias_sets_processed));
    row.emplace("followup_pool", static_cast<std::uint64_t>(r.followup_pool));
    row.emplace("followup_budget",
                static_cast<std::uint64_t>(r.followup_budget));
    row.emplace("followups_launched",
                static_cast<std::uint64_t>(r.followups_launched));
    row.emplace("followups_skipped",
                static_cast<std::uint64_t>(r.followups_skipped));
    row.emplace("followup_traces",
                static_cast<std::uint64_t>(r.followup_traces));
    rows.emplace_back(std::move(row));
  }
  o.emplace("iterations", std::move(rows));
  return JsonValue(std::move(o));
}

CfsMetrics metrics_from(const JsonValue& v) {
  CfsMetrics m;
  m.incremental = v.at("incremental").as_bool();
  m.initial_classify_ms = v.at("initial_classify_ms").as_number();
  m.initial_traces =
      static_cast<std::size_t>(v.at("initial_traces").as_int());
  m.initial_observations =
      static_cast<std::size_t>(v.at("initial_observations").as_int());
  m.alias_refreshes =
      static_cast<std::size_t>(v.at("alias_refreshes").as_int());
  m.reclassified_traces =
      static_cast<std::size_t>(v.at("reclassified_traces").as_int());
  m.reclassified_observations =
      static_cast<std::size_t>(v.at("reclassified_observations").as_int());
  m.replayed_observations =
      static_cast<std::size_t>(v.at("replayed_observations").as_int());
  m.total_ms = v.at("total_ms").as_number();
  // Reports written before parallel execution lack the key.
  if (const JsonValue* threads = v.find("threads"))
    m.threads = static_cast<std::size_t>(threads->as_int());
  // Reports written before the fault plane existed lack the key.
  if (const JsonValue* faults = v.find("faults"))
    m.faults = fault_metrics_from(*faults);
  // Reports written before the trace registry existed lack the key.
  if (const JsonValue* registry = v.find("registry"))
    m.registry = registry_from(*registry);

  const auto count = [](const JsonValue& row, const char* key) {
    return static_cast<std::size_t>(row.at(key).as_int());
  };
  for (const auto& row : v.at("iterations").as_array()) {
    IterationMetrics r;
    r.iteration = count(row, "iteration");
    r.classify_ms = row.at("classify_ms").as_number();
    r.alias_ms = row.at("alias_ms").as_number();
    r.reclassify_ms = row.at("reclassify_ms").as_number();
    r.constrain_ms = row.at("constrain_ms").as_number();
    r.followup_ms = row.at("followup_ms").as_number();
    r.alias_refreshed = row.at("alias_refreshed").as_bool();
    r.observations = count(row, "observations");
    r.interfaces = count(row, "interfaces");
    r.resolved = count(row, "resolved");
    r.classified_observations = count(row, "classified_observations");
    r.reclassified_traces = count(row, "reclassified_traces");
    r.replayed_observations = count(row, "replayed_observations");
    r.dirty_observations = count(row, "dirty_observations");
    r.constrained_observations = count(row, "constrained_observations");
    r.alias_sets_processed = count(row, "alias_sets_processed");
    r.followup_pool = count(row, "followup_pool");
    r.followup_budget = count(row, "followup_budget");
    r.followups_launched = count(row, "followups_launched");
    r.followups_skipped = count(row, "followups_skipped");
    r.followup_traces = count(row, "followup_traces");
    m.iterations.push_back(r);
  }
  return m;
}

}  // namespace

JsonValue topology_to_json(const Topology& topo) {
  JsonValue::Object root;
  root.emplace("format_version", format_version);

  JsonValue::Array metros;
  for (const auto& m : topo.metros()) {
    JsonValue::Object o;
    o.emplace("name", m.name);
    o.emplace("country", m.country);
    o.emplace("region", enum_json(m.region));
    o.emplace("location", geo_json(m.location));
    metros.emplace_back(std::move(o));
  }
  root.emplace("metros", std::move(metros));

  JsonValue::Array operators;
  for (const auto& op : topo.operators()) {
    JsonValue::Object o;
    o.emplace("name", op.name);
    o.emplace("carrier_neutral", op.carrier_neutral);
    operators.emplace_back(std::move(o));
  }
  root.emplace("operators", std::move(operators));

  JsonValue::Array facilities;
  for (const auto& f : topo.facilities()) {
    JsonValue::Object o;
    o.emplace("name", f.name);
    o.emplace("operator", f.oper.value);
    o.emplace("metro", f.metro.value);
    o.emplace("location", geo_json(f.location));
    o.emplace("raw_city", f.raw_city_name);
    facilities.emplace_back(std::move(o));
  }
  root.emplace("facilities", std::move(facilities));

  JsonValue::Array ixps;
  for (const auto& ixp : topo.ixps()) {
    JsonValue::Object o;
    o.emplace("name", ixp.name);
    o.emplace("metro", ixp.metro.value);
    o.emplace("peering_lan", prefix_json(ixp.peering_lan));
    o.emplace("has_route_server", ixp.has_route_server);
    o.emplace("route_server_asn", ixp.has_route_server
                                      ? JsonValue(ixp.route_server_asn.value)
                                      : JsonValue(nullptr));
    o.emplace("route_server_address",
              ixp.has_route_server ? addr_json(ixp.route_server_address)
                                   : JsonValue(nullptr));
    JsonValue::Array switches;
    for (const auto& sw : ixp.switches) {
      JsonValue::Object s;
      s.emplace("kind", enum_json(sw.kind));
      s.emplace("facility", sw.facility.value);
      s.emplace("parent", sw.parent);
      switches.emplace_back(std::move(s));
    }
    o.emplace("switches", std::move(switches));
    JsonValue::Array ports;
    for (const auto& port : ixp.ports) {
      JsonValue::Object p;
      p.emplace("member", port.member.value);
      p.emplace("router", port.router.value);
      p.emplace("address", addr_json(port.lan_address));
      p.emplace("access_switch", port.access_switch);
      p.emplace("remote", port.remote);
      p.emplace("reseller", port.reseller.valid()
                                ? JsonValue(port.reseller.value)
                                : JsonValue(nullptr));
      p.emplace("route_server_session", port.route_server_session);
      ports.emplace_back(std::move(p));
    }
    o.emplace("ports", std::move(ports));
    ixps.emplace_back(std::move(o));
  }
  root.emplace("ixps", std::move(ixps));

  JsonValue::Array ases;
  for (const auto& as : topo.ases()) {
    JsonValue::Object o;
    o.emplace("asn", as.asn.value);
    o.emplace("name", as.name);
    o.emplace("type", enum_json(as.type));
    JsonValue::Array prefixes;
    for (const auto& p : as.prefixes) prefixes.push_back(prefix_json(p));
    o.emplace("prefixes", std::move(prefixes));
    JsonValue::Array facs;
    for (const auto f : as.facilities) facs.emplace_back(f.value);
    o.emplace("facilities", std::move(facs));
    JsonValue::Array memberships;
    for (const auto ix : as.ixps) memberships.emplace_back(ix.value);
    o.emplace("ixps", std::move(memberships));
    o.emplace("dns", enum_json(as.dns));
    o.emplace("dns_zone", as.dns_zone);
    ases.emplace_back(std::move(o));
  }
  root.emplace("ases", std::move(ases));

  JsonValue::Array routers;
  for (const auto& r : topo.routers()) {
    JsonValue::Object o;
    o.emplace("owner", r.owner.value);
    o.emplace("facility", r.facility.value);
    o.emplace("local_address", addr_json(r.local_address));
    o.emplace("ipid", enum_json(r.ipid));
    o.emplace("responds", r.responds_to_traceroute);
    routers.emplace_back(std::move(o));
  }
  root.emplace("routers", std::move(routers));

  JsonValue::Array links;
  for (const auto& l : topo.links()) {
    JsonValue::Object o;
    o.emplace("type", enum_json(l.type));
    o.emplace("rel", enum_json(l.rel));
    o.emplace("a_router", l.a.router.value);
    o.emplace("a_address", addr_json(l.a.address));
    o.emplace("b_router", l.b.router.value);
    o.emplace("b_address", addr_json(l.b.address));
    o.emplace("ixp", id_json(l.ixp));
    o.emplace("facility", id_json(l.facility));
    o.emplace("latency_ms", l.latency_ms);
    o.emplace("multilateral", l.multilateral);
    links.emplace_back(std::move(o));
  }
  root.emplace("links", std::move(links));

  // Interfaces: everything except router local addresses (re-registered by
  // the importer) -- we export all and let the importer skip duplicates via
  // the link/role data. Simplest lossless form: every registered interface.
  JsonValue::Array interfaces;
  for (const auto& r : topo.routers()) {
    for (const Ipv4 addr : r.interfaces) {
      const Interface* iface = topo.find_interface(addr);
      JsonValue::Object o;
      o.emplace("address", addr_json(addr));
      o.emplace("router", iface->router.value);
      o.emplace("link", id_json(iface->link));
      o.emplace("role", enum_json(iface->role));
      interfaces.emplace_back(std::move(o));
    }
  }
  root.emplace("interfaces", std::move(interfaces));

  JsonValue::Array customer_provider;
  JsonValue::Array peering;
  for (const auto& as : topo.ases()) {
    for (const Asn p : topo.relations(as.asn).providers) {
      JsonValue::Array pair;
      pair.emplace_back(as.asn.value);
      pair.emplace_back(p.value);
      customer_provider.emplace_back(std::move(pair));
    }
    for (const Asn p : topo.relations(as.asn).peers) {
      if (p.value < as.asn.value) continue;  // emit each pair once
      JsonValue::Array pair;
      pair.emplace_back(as.asn.value);
      pair.emplace_back(p.value);
      peering.emplace_back(std::move(pair));
    }
  }
  JsonValue::Object rels;
  rels.emplace("customer_provider", std::move(customer_provider));
  rels.emplace("peering", std::move(peering));
  root.emplace("relationships", std::move(rels));

  JsonValue::Array announcements;
  topo.announcements().for_each([&](const Prefix& prefix, Asn origin) {
    JsonValue::Array pair;
    pair.push_back(prefix_json(prefix));
    pair.emplace_back(origin.value);
    announcements.emplace_back(std::move(pair));
  });
  root.emplace("announcements", std::move(announcements));

  return JsonValue(std::move(root));
}

Topology topology_from_json(const JsonValue& doc) {
  if (doc.at("format_version").as_int() != format_version)
    throw std::runtime_error("unsupported topology format version");

  Topology topo;

  for (const auto& m : doc.at("metros").as_array()) {
    Metro metro;
    metro.name = m.at("name").as_string();
    metro.country = m.at("country").as_string();
    metro.region = enum_from<Region>(m.at("region"));
    metro.location = geo_from(m.at("location"));
    topo.add_metro(std::move(metro));
  }

  for (const auto& op : doc.at("operators").as_array()) {
    FacilityOperator fo;
    fo.name = op.at("name").as_string();
    fo.carrier_neutral = op.at("carrier_neutral").as_bool();
    topo.add_operator(std::move(fo));
  }

  for (const auto& f : doc.at("facilities").as_array()) {
    Facility fac;
    fac.name = f.at("name").as_string();
    fac.oper = OperatorId(static_cast<std::uint32_t>(f.at("operator").as_int()));
    fac.metro = MetroId(static_cast<std::uint32_t>(f.at("metro").as_int()));
    fac.location = geo_from(f.at("location"));
    fac.raw_city_name = f.at("raw_city").as_string();
    topo.add_facility(std::move(fac));
  }

  // IXPs first without ports (ports reference routers).
  for (const auto& x : doc.at("ixps").as_array()) {
    Ixp ixp;
    ixp.name = x.at("name").as_string();
    ixp.metro = MetroId(static_cast<std::uint32_t>(x.at("metro").as_int()));
    ixp.peering_lan = prefix_from(x.at("peering_lan"));
    ixp.has_route_server = x.at("has_route_server").as_bool();
    if (ixp.has_route_server) {
      ixp.route_server_asn = Asn(
          static_cast<std::uint32_t>(x.at("route_server_asn").as_int()));
      ixp.route_server_address = addr_from(x.at("route_server_address"));
    }
    for (const auto& s : x.at("switches").as_array()) {
      IxpSwitch sw;
      sw.kind = enum_from<IxpSwitch::Kind>(s.at("kind"));
      sw.facility =
          FacilityId(static_cast<std::uint32_t>(s.at("facility").as_int()));
      sw.parent = static_cast<std::uint32_t>(s.at("parent").as_int());
      ixp.switches.push_back(sw);
    }
    topo.add_ixp(std::move(ixp));
  }

  for (const auto& a : doc.at("ases").as_array()) {
    AutonomousSystem as;
    as.asn = Asn(static_cast<std::uint32_t>(a.at("asn").as_int()));
    as.name = a.at("name").as_string();
    as.type = enum_from<AsType>(a.at("type"));
    for (const auto& p : a.at("prefixes").as_array())
      as.prefixes.push_back(prefix_from(p));
    for (const auto& f : a.at("facilities").as_array())
      as.facilities.emplace_back(static_cast<std::uint32_t>(f.as_int()));
    for (const auto& ix : a.at("ixps").as_array())
      as.ixps.emplace_back(static_cast<std::uint32_t>(ix.as_int()));
    as.dns = enum_from<DnsConvention>(a.at("dns"));
    as.dns_zone = a.at("dns_zone").as_string();
    topo.add_as(std::move(as));
  }

  for (const auto& r : doc.at("routers").as_array()) {
    Router router;
    router.owner = Asn(static_cast<std::uint32_t>(r.at("owner").as_int()));
    router.facility =
        FacilityId(static_cast<std::uint32_t>(r.at("facility").as_int()));
    router.local_address = addr_from(r.at("local_address"));
    router.ipid = enum_from<IpIdBehaviour>(r.at("ipid"));
    router.responds_to_traceroute = r.at("responds").as_bool();
    topo.add_router(std::move(router));
  }

  for (const auto& i : doc.at("interfaces").as_array()) {
    Interface iface;
    iface.address = addr_from(i.at("address"));
    iface.router =
        RouterId(static_cast<std::uint32_t>(i.at("router").as_int()));
    iface.link = id_from<LinkId>(i.at("link"));
    iface.role = enum_from<InterfaceRole>(i.at("role"));
    topo.add_interface(iface);
  }

  for (const auto& l : doc.at("links").as_array()) {
    Link link;
    link.type = enum_from<LinkType>(l.at("type"));
    link.rel = enum_from<BusinessRel>(l.at("rel"));
    link.a = LinkEnd{
        RouterId(static_cast<std::uint32_t>(l.at("a_router").as_int())),
        addr_from(l.at("a_address"))};
    link.b = LinkEnd{
        RouterId(static_cast<std::uint32_t>(l.at("b_router").as_int())),
        addr_from(l.at("b_address"))};
    link.ixp = id_from<IxpId>(l.at("ixp"));
    link.facility = id_from<FacilityId>(l.at("facility"));
    link.latency_ms = l.at("latency_ms").as_number();
    link.multilateral = l.at("multilateral").as_bool();
    topo.add_link(link);
  }

  // Ports after routers exist.
  {
    std::uint32_t ixp_index = 0;
    for (const auto& x : doc.at("ixps").as_array()) {
      Ixp& ixp = topo.mutable_ixp(IxpId(ixp_index++));
      for (const auto& p : x.at("ports").as_array()) {
        IxpPort port;
        port.member = Asn(static_cast<std::uint32_t>(p.at("member").as_int()));
        port.router =
            RouterId(static_cast<std::uint32_t>(p.at("router").as_int()));
        port.lan_address = addr_from(p.at("address"));
        port.access_switch =
            static_cast<std::uint32_t>(p.at("access_switch").as_int());
        port.remote = p.at("remote").as_bool();
        if (!p.at("reseller").is_null())
          port.reseller =
              Asn(static_cast<std::uint32_t>(p.at("reseller").as_int()));
        port.route_server_session =
            p.at("route_server_session").as_bool();
        ixp.ports.push_back(port);
      }
    }
  }

  const auto& rels = doc.at("relationships");
  for (const auto& pair : rels.at("customer_provider").as_array())
    topo.add_relationship(
        Asn(static_cast<std::uint32_t>(pair.at(0).as_int())),
        Asn(static_cast<std::uint32_t>(pair.at(1).as_int())));
  for (const auto& pair : rels.at("peering").as_array())
    topo.add_peering(Asn(static_cast<std::uint32_t>(pair.at(0).as_int())),
                     Asn(static_cast<std::uint32_t>(pair.at(1).as_int())));

  for (const auto& pair : doc.at("announcements").as_array())
    topo.announce(prefix_from(pair.at(0)),
                  Asn(static_cast<std::uint32_t>(pair.at(1).as_int())));

  topo.validate();
  return topo;
}

JsonValue report_to_json(const CfsReport& report) {
  TraceSpan span("export.report");
  span.arg("interfaces", report.interfaces.size());
  span.arg("links", report.links.size());
  JsonValue::Object root;
  root.emplace("format_version", format_version);
  root.emplace("traces_used", static_cast<std::uint64_t>(report.traces_used));
  root.emplace("iterations_run",
               static_cast<std::uint64_t>(report.iterations_run));

  JsonValue::Array history;
  for (const auto v : report.resolved_per_iteration)
    history.emplace_back(static_cast<std::uint64_t>(v));
  root.emplace("resolved_per_iteration", std::move(history));

  // Canonical interface order: the store is an unordered_map, whose
  // iteration order depends on insertion history — a report rebuilt from
  // its own JSON would re-serialise in a different order, so the exported
  // form would never reach a byte-stable fixpoint (the round-trip property
  // in tests/io/export_fixpoint_test.cpp). Sorting by address makes the
  // export a pure function of report content.
  std::vector<const InterfaceInference*> ordered;
  ordered.reserve(report.interfaces.size());
  for (const auto& [addr, inf] : report.interfaces) ordered.push_back(&inf);
  std::sort(ordered.begin(), ordered.end(),
            [](const InterfaceInference* a, const InterfaceInference* b) {
              return a->addr < b->addr;
            });

  JsonValue::Array interfaces;
  for (const InterfaceInference* inf_ptr : ordered) {
    const InterfaceInference& inf = *inf_ptr;
    const Ipv4 addr = inf.addr;
    JsonValue::Object o;
    o.emplace("address", addr_json(addr));
    o.emplace("asn", inf.asn.value);
    o.emplace("has_constraint", inf.has_constraint);
    JsonValue::Array cands;
    for (const auto f : inf.candidates) cands.emplace_back(f.value);
    o.emplace("candidates", std::move(cands));
    o.emplace("remote_suspect", inf.remote_suspect);
    o.emplace("resolved_iteration", inf.resolved_iteration);
    o.emplace("conflicts", inf.conflicts);
    interfaces.emplace_back(std::move(o));
  }
  root.emplace("interfaces", std::move(interfaces));

  JsonValue::Array links;
  for (const auto& link : report.links) {
    JsonValue::Object o;
    o.emplace("kind", enum_json(link.obs.kind));
    o.emplace("near_address", addr_json(link.obs.near_addr));
    o.emplace("near_as", link.obs.near_as.value);
    o.emplace("far_address", addr_json(link.obs.far_addr));
    o.emplace("far_as", link.obs.far_as.value);
    o.emplace("ixp", id_json(link.obs.ixp));
    o.emplace("near_rtt_ms", link.obs.near_rtt_ms);
    o.emplace("far_rtt_ms", link.obs.far_rtt_ms);
    o.emplace("type", enum_json(link.type));
    o.emplace("near_facility", link.near_facility
                                   ? JsonValue(link.near_facility->value)
                                   : JsonValue(nullptr));
    o.emplace("far_facility", link.far_facility
                                  ? JsonValue(link.far_facility->value)
                                  : JsonValue(nullptr));
    o.emplace("far_by_proximity", link.far_by_proximity);
    links.emplace_back(std::move(o));
  }
  root.emplace("links", std::move(links));

  JsonValue::Array alias_sets;
  for (const auto& set : report.aliases.sets) {
    JsonValue::Array addrs;
    for (const Ipv4 a : set) addrs.push_back(addr_json(a));
    alias_sets.emplace_back(std::move(addrs));
  }
  root.emplace("alias_sets", std::move(alias_sets));

  JsonValue::Array unresolved;
  for (const Ipv4 a : report.aliases.unresolved)
    unresolved.push_back(addr_json(a));
  root.emplace("alias_unresolved", std::move(unresolved));

  root.emplace("metrics", metrics_json(report.metrics));

  return JsonValue(std::move(root));
}

CfsReport report_from_json(const JsonValue& doc) {
  if (doc.at("format_version").as_int() != format_version)
    throw std::runtime_error("unsupported report format version");

  CfsReport report;
  report.traces_used =
      static_cast<std::size_t>(doc.at("traces_used").as_int());
  report.iterations_run =
      static_cast<std::size_t>(doc.at("iterations_run").as_int());
  for (const auto& v : doc.at("resolved_per_iteration").as_array())
    report.resolved_per_iteration.push_back(
        static_cast<std::size_t>(v.as_int()));

  for (const auto& i : doc.at("interfaces").as_array()) {
    InterfaceInference inf;
    inf.addr = addr_from(i.at("address"));
    inf.asn = Asn(static_cast<std::uint32_t>(i.at("asn").as_int()));
    inf.has_constraint = i.at("has_constraint").as_bool();
    for (const auto& f : i.at("candidates").as_array())
      inf.candidates.emplace_back(static_cast<std::uint32_t>(f.as_int()));
    inf.remote_suspect = i.at("remote_suspect").as_bool();
    inf.resolved_iteration =
        static_cast<int>(i.at("resolved_iteration").as_int());
    inf.conflicts = static_cast<int>(i.at("conflicts").as_int());
    report.interfaces.emplace(inf.addr, std::move(inf));
  }

  for (const auto& l : doc.at("links").as_array()) {
    LinkInference link;
    link.obs.kind = enum_from<PeeringKind>(l.at("kind"));
    link.obs.near_addr = addr_from(l.at("near_address"));
    link.obs.near_as =
        Asn(static_cast<std::uint32_t>(l.at("near_as").as_int()));
    link.obs.far_addr = addr_from(l.at("far_address"));
    link.obs.far_as = Asn(static_cast<std::uint32_t>(l.at("far_as").as_int()));
    link.obs.ixp = id_from<IxpId>(l.at("ixp"));
    link.obs.near_rtt_ms = l.at("near_rtt_ms").as_number();
    link.obs.far_rtt_ms = l.at("far_rtt_ms").as_number();
    link.type = enum_from<InterconnectionType>(l.at("type"));
    if (!l.at("near_facility").is_null())
      link.near_facility = FacilityId(
          static_cast<std::uint32_t>(l.at("near_facility").as_int()));
    if (!l.at("far_facility").is_null())
      link.far_facility = FacilityId(
          static_cast<std::uint32_t>(l.at("far_facility").as_int()));
    link.far_by_proximity = l.at("far_by_proximity").as_bool();
    report.links.push_back(std::move(link));
  }

  for (const auto& set : doc.at("alias_sets").as_array()) {
    std::vector<Ipv4> addrs;
    for (const auto& a : set.as_array()) addrs.push_back(addr_from(a));
    report.aliases.sets.push_back(std::move(addrs));
  }
  for (const auto& a : doc.at("alias_unresolved").as_array())
    report.aliases.unresolved.push_back(addr_from(a));

  // Reports written before metrics existed simply lack the key.
  if (const JsonValue* metrics = doc.find("metrics"))
    report.metrics = metrics_from(*metrics);

  return report;
}

JsonValue counters_json(const CfsMetrics& metrics) {
  // Drops every `*_ms` key at any depth (faults.wall_ms included).
  const auto strip_timings = [](auto& self, JsonValue& v) -> void {
    if (v.is_array()) {
      for (JsonValue& item : v.as_array()) self(self, item);
    } else if (v.is_object()) {
      JsonValue::Object& o = v.as_object();
      for (auto it = o.begin(); it != o.end();) {
        if (it->first.ends_with("_ms")) {
          it = o.erase(it);
        } else {
          self(self, it->second);
          ++it;
        }
      }
    }
  };
  JsonValue json = metrics_json(metrics);
  json.as_object().erase("threads");
  json.as_object().erase("registry");
  strip_timings(strip_timings, json);
  return json;
}

void write_topology(std::ostream& os, const Topology& topo) {
  TraceSpan span("export.topology");
  span.arg("routers", topo.routers().size());
  span.arg("links", topo.links().size());
  os << topology_to_json(topo).pretty() << '\n';
}

void write_report(std::ostream& os, const CfsReport& report) {
  os << report_to_json(report).pretty() << '\n';
}

namespace {

// Write-to-temp + rename(2). rename is atomic within a filesystem and the
// temp file is a sibling of the target, so the swap never crosses one.
template <class Emit>
void atomic_replace(const std::string& path, Emit&& emit) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) throw std::runtime_error("cannot write " + tmp);
    emit(file);
    file.flush();
    if (!file) {
      std::remove(tmp.c_str());
      throw std::runtime_error("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace

void write_topology_file(const std::string& path, const Topology& topo) {
  atomic_replace(path, [&](std::ostream& os) { write_topology(os, topo); });
}

void write_report_file(const std::string& path, const CfsReport& report) {
  atomic_replace(path, [&](std::ostream& os) { write_report(os, report); });
}

}  // namespace cfs
