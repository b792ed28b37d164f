(** Rendering of NAB run reports: the per-phase time/bit breakdown the CLI
    prints, and the JSON encoding behind [--json] and the benches. *)

val pp_phase_breakdown : Format.formatter -> Nab.instance_report -> unit
(** The per-phase table (rounds, wall, bottleneck, bits). *)

(** {1 Machine-readable reports}

    A JSON encoding of {!Nab.run_report} (the CLI's [--json]
    artifact). Schema, top level:
    {v
    {"config":{"f":..,"source":..,"l_bits":..,"m":..,"seed":..,"flag_backend":"eig"|"phase_king"},
     "adversary":STR,"faulty":[INT..],"instances":[INSTANCE..],
     "dc_count":INT,"disputes":[[a,b]..],
     "final_graph":{"vertices":[INT..],"edges":[[src,dst,cap]..]},
     "total_wall":NUM,"total_pipelined":NUM,
     "throughput_wall":NUM,"throughput_pipelined":NUM}
    v}
    and per instance:
    {v
    {"k":INT,"value_bits":INT,"gamma_k":INT,"rho_k":INT,
     "decisions":[{"node":INT,"bits":INT,"hex":STR}..],
     "mismatch":BOOL,"dc_run":BOOL,"reduced_to_phase1":BOOL,
     "coding_attempts":INT,"wall_time":NUM,"pipelined_time":NUM,
     "phase_stats":[{"phase":STR,"rounds":INT,"wall":NUM,"bottleneck":NUM,
                     "bits_total":INT,"extra":NUM}..],
     "utilization":[{"src":INT,"dst":INT,"u":NUM}..],
     "new_disputes":[[a,b]..]}
    v}
    Decisions carry the exact value as {!Bitvec.to_hex} plus its bit length;
    non-finite throughputs (a zero-time run) encode as the strings ["inf"] /
    ["nan"] per {!Nab_obs.Json}. *)

val run_to_json : Nab.run_report -> Nab_obs.Json.t
