(* The trials workload: Algorithm 1 in-process on the counts oracle, one
   domain, alternating a yes instance (staircase:4, in H_k) and a no
   instance (comb:16, at distance (2T - k)/(8T) from H_k). *)

open Pb_util

let n = 1 lsl 16
let k = 4
let eps = 0.2
let teeth = 16
let trace_rounds = 10

type instance = { pmf : Pmf.t; tree : Split_tree.t; yes : bool }

(* Number of maximal constant runs of a pmf. *)
let runs pmf =
  let r = ref 1 in
  for i = 1 to Pmf.size pmf - 1 do
    if not (Float.equal (Pmf.get pmf i) (Pmf.get pmf (i - 1))) then incr r
  done;
  !r

let trial ws inst rng =
  let oracle = Poissonize.counts_of_tree_ws ws rng inst.tree in
  Histotest.Hist_tester.run oracle ~k ~eps

(* Instances, split trees, reference distances, and one warm-up trial per
   instance (on a generator of its own, so the measured trials do not
   depend on how often set-up ran). *)
let set_up ~seed ws =
  (* the staircase's levels are fixed; --seed drives the trials *)
  let yes_pmf = Families.staircase ~n ~k ~rng:(Randkit.Rng.create ~seed:1) in
  let no_pmf = Families.comb ~n ~teeth in
  let yes = { pmf = yes_pmf; tree = Split_tree.of_pmf yes_pmf; yes = true } in
  let no = { pmf = no_pmf; tree = Split_tree.of_pmf no_pmf; yes = false } in
  let r = runs yes_pmf in
  check (r <= k) "staircase has %d constant runs, more than k = %d" r k;
  let d_yes = Closest.tv_to_hk yes_pmf ~k in
  check (d_yes <= 1e-12) "staircase is %.3g from H_k" d_yes;
  let d_no = Closest.tv_to_hk no_pmf ~k in
  let closed = float_of_int ((2 * teeth) - k) /. float_of_int (8 * teeth) in
  check (Float.abs (d_no -. closed) <= 1e-12)
    "comb distance %.17g, closed form %.17g" d_no closed;
  check (d_no >= eps) "comb only %.4f from H_k" d_no;
  let warm = Randkit.Rng.create ~seed:(seed + 1_000_003) in
  ignore (trial ws yes (Randkit.Rng.split warm) : Histotest.Hist_tester.report);
  ignore (trial ws no (Randkit.Rng.split warm) : Histotest.Hist_tester.report);
  (yes, no)

(* --- the traced stage composition --------------------------------------- *)

type counts = {
  mutable sample_calls : int;
  mutable samples_used : int;
  mutable cells : int;
  mutable sieve_rounds : int;
  mutable sieve_removed : int;
  mutable decided_sieving : int;
  mutable decided_checking : int;
  mutable decided_testing : int;
}

(* Hist_tester.run's stages called one by one, in its order and with its
   arguments, on an oracle whose every draw is a span. *)
let traced_run tr counts ~id (oracle : Poissonize.oracle) =
  let open Histotest in
  let timed f x =
    counts.sample_calls <- counts.sample_calls + 1;
    Pb_trace.span tr "oracle.sample" ~id (fun () -> f x)
  in
  let oracle =
    {
      oracle with
      Poissonize.exact = timed oracle.Poissonize.exact;
      poissonized = timed oracle.Poissonize.poissonized;
      stream = timed oracle.Poissonize.stream;
    }
  in
  let config = Config.default in
  Pb_trace.span tr "trial" ~id (fun () ->
      let b = Config.part_b config ~k ~eps in
      let ap =
        Pb_trace.span tr "approx_part" ~id (fun () ->
            Approx_part.run ~config oracle ~b)
      in
      let part = ap.Approx_part.partition in
      let kk = Partition.cell_count part in
      counts.cells <- counts.cells + kk;
      let learned =
        Pb_trace.span tr "learner" ~id (fun () ->
            Learner.run ~config oracle ~part ~eps)
      in
      let dhat = learned.Learner.estimate in
      let used = ap.Approx_part.samples_used + learned.Learner.samples_used in
      let eligible =
        Array.init kk (fun j -> Interval.length (Partition.cell part j) >= 2)
      in
      let sieve =
        Pb_trace.span tr "sieve" ~id (fun () ->
            Sieve.run ~config oracle ~dhat ~part ~eligible ~k ~eps)
      in
      counts.sieve_rounds <- counts.sieve_rounds + sieve.Sieve.rounds_used;
      counts.sieve_removed <- counts.sieve_removed + sieve.Sieve.removed_count;
      let used = used + sieve.Sieve.samples_used in
      let verdict, stage, used =
        if Verdict.equal sieve.Sieve.verdict Verdict.Reject then
          (Verdict.Reject, Hist_tester.Sieving, used)
        else
          let mask = Partition.restrict_mask part ~keep:sieve.Sieve.kept in
          let d =
            Pb_trace.span tr "closest" ~id (fun () ->
                Closest.tv_to_hk ~mask dhat ~k)
          in
          if d > eps /. config.Config.check_eps_div then
            (Verdict.Reject, Hist_tester.Checking, used)
          else
            let final =
              Pb_trace.span tr "adk15" ~id (fun () ->
                  Adk15.run ~config ~cell_mask:sieve.Sieve.kept ~part oracle
                    ~dstar:dhat ~eps:(eps *. config.Config.test_eps_frac))
            in
            (final.Adk15.verdict, Hist_tester.Testing, used + final.Adk15.samples_used)
      in
      counts.samples_used <- counts.samples_used + used;
      (match stage with
      | Hist_tester.Sieving -> counts.decided_sieving <- counts.decided_sieving + 1
      | Hist_tester.Checking -> counts.decided_checking <- counts.decided_checking + 1
      | _ -> counts.decided_testing <- counts.decided_testing + 1);
      (verdict, stage, used))

let layer_names = [ "oracle.sample"; "approx_part"; "learner"; "sieve"; "closest"; "adk15" ]

(* --- entry point -------------------------------------------------------- *)

(* Set-up runs [setups] times before the measured rounds and once more
   after every [setup_every] rounds, so the set-up times sample the whole
   run rather than its first seconds. *)
let setups = 3
let setup_every = 6

let check_rates ~yes_acc ~yes_n ~no_rej ~no_n =
  check (3 * yes_acc >= 2 * yes_n) "yes instance accepted %d of %d" yes_acc yes_n;
  check (3 * no_rej >= 2 * no_n) "no instance rejected %d of %d" no_rej no_n

let run ~seed ~seconds ~traced =
  let ws = Workspace.create () in
  let acc = setup_log () in
  let yes, no =
    repeated_setup acc ~count:setups ~seconds:0.
      (fun () -> set_up ~seed ws)
      ignore
  in
  let master = Randkit.Rng.create ~seed:((seed * 104729) + 17) in
  let yes_acc = ref 0 and no_rej = ref 0 and rounds = ref 0 in
  let count inst (r : Histotest.Hist_tester.report) =
    if inst.yes && Verdict.equal r.verdict Verdict.Accept then incr yes_acc;
    if (not inst.yes) && Verdict.equal r.verdict Verdict.Reject then incr no_rej
  in
  if not traced then begin
    (* each trial's unstolen time, in ms *)
    let lat_yes = ref [] and lat_no = ref [] and stolen = ref 0 in
    let t_start = now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    while !rounds = 0 || now_ns () < deadline do
      List.iter
        (fun (inst, v) ->
          let child = Randkit.Rng.split master in
          let t0 = now_ns () and steal0 = steal_ticks () in
          let r = trial ws inst child in
          let wall = secs_of_ns (now_ns () - t0) in
          let steal = steal_ticks () - steal0 in
          stolen := !stolen + steal;
          v := (unstolen ~wall ~steal *. 1e3) :: !v;
          count inst r)
        [ (yes, lat_yes); (no, lat_no) ];
      incr rounds;
      if !rounds mod setup_every = 0 then ignore (timed_setup acc (fun () -> set_up ~seed ws))
    done;
    let setup_s = setup_figure acc in
    let wall = secs_of_ns (now_ns () - t_start) in
    check_rates ~yes_acc:!yes_acc ~yes_n:!rounds ~no_rej:!no_rej ~no_n:!rounds;
    info "trials: %d rounds in %.3f s; yes accepted %d, no rejected %d" !rounds
      wall !yes_acc !no_rej;
    (* worse deciles over the rounds (a round: one yes and one no trial);
       the p99 over all trials *)
    let yes_ms = Array.of_list !lat_yes and no_ms = Array.of_list !lat_no in
    let over = worse ~share:0.1 ~higher_is_better:false in
    let rate =
      worse ~share:0.1 ~higher_is_better:true
        (Array.map2 (fun y n -> 2e3 /. (y +. n)) yes_ms no_ms)
    in
    Printf.printf "wall_s %.6f host_steal_s %.2f rounds %d\n" wall
      (float_of_int !stolen /. 100.) !rounds;
    untraced (2 * !rounds)
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" rate;
        m "latency_p50_ms" "ms" (over yes_ms);
        m "latency_p99_ms" "ms"
          (Numkit.Summary.quantile (Array.append yes_ms no_ms) 0.99);
        m "verdict_p50_ms" "ms" (over no_ms);
        m "peak_rss_mb" "MB" (peak_rss_mb None);
      ]
  end
  else begin
    (* Each trial twice on copies of one generator: untraced through
       Hist_tester.run, then through the traced composition; the two must
       agree trial by trial. *)
    let tr = Pb_trace.create () in
    let c =
      {
        sample_calls = 0;
        samples_used = 0;
        cells = 0;
        sieve_rounds = 0;
        sieve_removed = 0;
        decided_sieving = 0;
        decided_checking = 0;
        decided_testing = 0;
      }
    in
    let plain_ns = ref 0 and traced_ns = ref 0 in
    Gc.full_major ();
    let gc0 = Gc.quick_stat () and alloc = ref 0. in
    let id = ref 0 in
    for _ = 1 to trace_rounds do
      List.iter
        (fun inst ->
          incr id;
          let child = Randkit.Rng.split master in
          let copy = Randkit.Rng.copy child in
          let a0 = Gc.allocated_bytes () in
          let t0 = now_ns () in
          let r = trial ws inst child in
          plain_ns := !plain_ns + (now_ns () - t0);
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          count inst r;
          let oracle = Poissonize.counts_of_tree_ws ws copy inst.tree in
          let t0 = now_ns () in
          let verdict, stage, used = traced_run tr c ~id:!id oracle in
          traced_ns := !traced_ns + (now_ns () - t0);
          check
            (Verdict.equal verdict r.verdict && stage = r.decided_at
            && used = r.samples_used)
            "trial %d: traced %s at %s with %d samples, untraced %s at %s with %d"
            !id (Verdict.to_string verdict)
            (Histotest.Hist_tester.stage_to_string stage)
            used (Verdict.to_string r.verdict)
            (Histotest.Hist_tester.stage_to_string r.decided_at)
            r.samples_used)
        [ yes; no ];
      incr rounds
    done;
    let gc1 = Gc.quick_stat () in
    check_rates ~yes_acc:!yes_acc ~yes_n:!rounds ~no_rej:!no_rej ~no_n:!rounds;
    Pb_trace.write tr (Filename.concat (tmp_dir ()) "trials.spans.tsv");
    let b = Pb_trace.busy tr in
    let f = float_of_int in
    {
      attempted = 2 * !rounds;
      e2e = [];
      layers = List.map (fun l -> (l, b l)) layer_names;
      traced_total = Pb_trace.total tr "trial";
      overhead = f !traced_ns /. f !plain_ns;
      per_layer =
        [
          m "oracle.sample.busy_s" "s" (b "oracle.sample");
          m "oracle.sample.calls" "count" (f c.sample_calls);
          m "trial.samples_used" "count" (f c.samples_used);
          m "closest.busy_s" "s" (b "closest");
          m "sieve.busy_s" "s" (b "sieve");
          m "sieve.rounds" "count" (f c.sieve_rounds);
          m "sieve.removed" "count" (f c.sieve_removed);
          m "approx_part.busy_s" "s" (b "approx_part");
          m "approx_part.cells" "count" (f c.cells);
          m "learner.busy_s" "s" (b "learner");
          m "adk15.busy_s" "s" (b "adk15");
          m "trial.decided_sieving" "count" (f c.decided_sieving);
          m "trial.decided_checking" "count" (f c.decided_checking);
          m "trial.decided_testing" "count" (f c.decided_testing);
          m "gc.alloc_mb" "MB" (!alloc /. 1e6);
          m "gc.major_collections" "count"
            (f (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ];
    }
  end
