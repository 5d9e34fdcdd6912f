#include "common/config.h"

#include <sstream>

namespace sjoin {

std::string Summarize(const SystemConfig& cfg) {
  std::ostringstream os;
  os << "slaves=" << cfg.num_slaves << " active0=" << cfg.ActiveSlavesAtStart()
     << " W=" << UsToSeconds(cfg.join.window) << "s"
     << " npart=" << cfg.join.num_partitions
     << " theta=" << static_cast<double>(cfg.join.theta_bytes) / (1024.0 * 1024.0)
     << "MB block=" << cfg.join.block_bytes << "B"
     << " tuning=" << (cfg.join.fine_tuning ? "on" : "off")
     << " t_d=" << UsToSeconds(cfg.epoch.t_dist) << "s"
     << " t_r=" << UsToSeconds(cfg.epoch.t_rep) << "s"
     << " ng=" << cfg.epoch.num_subgroups
     << " lambda=" << cfg.workload.lambda << "t/s"
     << " b=" << cfg.workload.b_skew
     << " Th_sup=" << cfg.balance.th_sup << " Th_con=" << cfg.balance.th_con
     << " beta=" << cfg.balance.beta
     << " adaptive=" << (cfg.balance.adaptive_declustering ? "on" : "off")
     << " repl=" << (cfg.replication.enabled ? "on" : "off");
  if (cfg.replication.enabled) {
    os << " ckpt_every=" << cfg.replication.ckpt_interval_epochs;
  }
  // Only printed off-default so existing bench headers stay byte-identical.
  if (cfg.slave.workers != 1) {
    os << " workers=" << cfg.slave.workers;
  }
  if (cfg.cluster.elastic.enabled) {
    os << " elastic=on drain_per_epoch="
       << cfg.cluster.elastic.drain_groups_per_epoch
       << " policy=" << (cfg.cluster.elastic.policy ? "on" : "off");
  }
  os << " net=" << (cfg.net.use_inet ? "inet" : "unix");
  return os.str();
}

}  // namespace sjoin
