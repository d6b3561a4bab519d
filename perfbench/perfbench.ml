(* perfbench: one benchmark for histotestd and the trial engine.

     perfbench --workload ingest|fanout|trials --seed N --seconds S --trace 0|1

   Normally started through perfbench/run.sh, which builds this program
   and histotestd first.  The last line of stdout is the result:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} —
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
   See perfbench/README.md for the workloads and what each metric
   measures. *)

open Pb_util

(* Every per-layer metric with its unit, in BENCHMARK.json's order.  A
   workload reports 0 for a layer it does not run (the serve layers on
   trials and the reverse). *)
let per_layer_units () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let field k j = Option.get (Jsonl.member k j) in
  match Jsonl.parse text with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok j ->
      List.map
        (fun e ->
          ( Option.get (Jsonl.to_str (field "name" e)),
            Option.get (Jsonl.to_str (field "unit" e)) ))
        (Option.get (Jsonl.to_list (field "per_layer" j)))

let usage () =
  prerr_endline
    "usage: perfbench --workload ingest|fanout|trials --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

(* The traced-run report: every layer's self time and share of the
   traced total, the largest layer, and the tracing overhead. *)
let report workload layers total overhead =
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  List.iter
    (fun (l, v) -> info "%s layer %-14s %9.4f s  %5.1f%%" workload l v (100. *. v /. total))
    layers;
  let top, top_v =
    List.fold_left (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv)) ("", 0.) layers
  in
  info "%s: layers sum to %.4f s of %.4f s traced (%.1f%%); largest %s at %.1f%%; \
        trace.overhead_ratio %.3f"
    workload sum total (100. *. sum /. total) top (100. *. top_v /. total) overhead;
  check (Float.abs (sum -. total) <= 0.15 *. total)
    "%s: layer self times sum to %.4f s, not within 15%% of the traced total %.4f s"
    workload sum total;
  sum /. total

let () =
  let workload, seed, seconds, traced = parse_args () in
  let o =
    match workload with
    | "ingest" -> Pb_serve.run Pb_serve.ingest ~seed ~seconds ~traced
    | "fanout" -> Pb_serve.run Pb_serve.fanout ~seed ~seconds ~traced
    | "trials" -> Pb_trials.run ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let per_layer =
    if not traced then []
    else
      let ratio = report workload o.layers o.traced_total o.overhead in
      o.per_layer
      @ [
          m "trace.overhead_ratio" "ratio" o.overhead;
          m "trace.layer_sum_ratio" "ratio" ratio;
        ]
  in
  let metrics =
    if not traced then o.e2e
    else begin
      let per_layer_units = per_layer_units () in
      List.iter
        (fun mt ->
          if not (List.mem_assoc mt.name per_layer_units) then
            failwith ("unlisted per-layer metric " ^ mt.name))
        per_layer;
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun mt -> String.equal mt.name name) per_layer with
          | Some mt -> mt
          | None -> m name unit_ 0.)
        per_layer_units
    end
  in
  let correct = all_correct () in
  print_result ~correct ~attempted:o.attempted ~failed:!failed_ops metrics
