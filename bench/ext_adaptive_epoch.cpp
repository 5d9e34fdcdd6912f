// Extension (paper future work: "dynamically tuning ... distribution
// epoch"): the adaptive epoch controller walks t_d along the Fig 13/14
// tradeoff on its own. Started from deliberately bad epochs at a moderate
// load, it should land near the same operating region either way -- short
// initial epochs grow (comm fraction too high), long ones shrink (delay
// cheap to buy back).
#include "bench_common.h"

int main() {
  using namespace sjoin;
  SystemConfig base = bench::ScaledConfig();
  base.num_slaves = 3;
  base.epoch_tuner.enabled = true;
  bench::Reporter rep("ext_adaptive_epoch", "Ext tuner",
                      "adaptive distribution epoch (3 slaves)",
                      "from any starting t_d the controller converges "
                      "towards a moderate epoch: delay close to the "
                      "good-static case, comm overhead far below the "
                      "bad-short-epoch case (cf. Figs 13/14)",
                      base);

  std::printf("%-10s %-8s %10s %10s %12s %8s %8s\n", "mode", "t_d0",
              "delay_s", "comm_s", "final_t_d_s", "grows", "shrinks");
  rep.Columns({"mode", "t_d0", "delay_s", "comm_s", "final_t_d_s", "grows",
               "shrinks"});
  for (double td0 : {0.25, 2.0, 8.0}) {
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
      SystemConfig cfg = base;
      cfg.epoch.t_dist = SecondsToUs(td0);
      // A tighter control loop than Table I's 10x ratio so the tuner gets
      // several decisions within one bench run.
      cfg.epoch.t_rep = 5 * cfg.epoch.t_dist;
      cfg.epoch_tuner.enabled = adaptive == 1;
      RunMetrics rm = bench::Run(cfg);
      rep.Text("%-10s", adaptive ? "adaptive" : "static");
      rep.Num(" %-8.2f", td0);
      rep.Num(" %10.2f", rm.AvgDelaySec());
      rep.Num(" %10.1f", bench::PerSlaveSec(rm, rm.TotalComm()));
      rep.Num(" %12.2f", UsToSeconds(rm.final_t_dist));
      rep.Num(" %8.0f", static_cast<double>(rm.epoch_grows));
      rep.Num(" %8.0f", static_cast<double>(rm.epoch_shrinks));
      rep.EndRow();
      std::fflush(stdout);
    }
  }
  return rep.Finish();
}
