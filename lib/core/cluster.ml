type delta = {
  errd : float;
  sized : int;
}

(* Per-edge sufficient statistics: over the elements of the source
   cluster, the sum and sum of squares of per-element child counts into
   the target cluster.  Both are additive over source members; when two
   *target* clusters merge, the combined dimension needs the cross term
   Sum n_s * K_u(s) * K_v(s), which is recovered from the stable
   summary's in-edges (the "small subset of the base data" the paper
   mentions). *)
type stats = {
  mutable sum : float;
  mutable sumsq : float;
}

type t = {
  stable : Synopsis.t;
  inmap : (int, float) Hashtbl.t array;
      (* per representative: stable source node -> total per-element
         child count from that source into this cluster.  Additive
         under merges (member sets are disjoint), merged
         smaller-into-larger. *)
  uf : int array;
  members : int list array;  (* valid at representatives *)
  count : float array;
  height : int array;
  version : int array;
  mutable alive : int;
  mutable edges : int;
  mutable sq : float;
  out : (int, stats) Hashtbl.t array;
      (* per representative: target representative -> stats.  Keys may
         be stale (merged-away) ids; they are renamed on access, which
         is safe because cross-term-carrying collapses are applied
         eagerly at merge time. *)
  sqout : float array;  (* derived from [out], kept in sync *)
  mutable merges : int;  (* merges applied so far *)
  normalized : int array;
      (* per representative: [merges] when its out map was last
         normalized; only a merge can make a key stale *)
}

let stable t = t.stable

let rec find t i =
  if t.uf.(i) = i then i
  else begin
    let r = find t t.uf.(i) in
    t.uf.(i) <- r;
    r
  end

let is_rep t i = t.uf.(i) = i

let num_alive t = t.alive

let label t i = Synopsis.label t.stable i

let count t i = t.count.(i)

let height t i = t.height.(i)

let version t i = t.version.(i)

let size_bytes t = (Synopsis.node_bytes * t.alive) + (Synopsis.edge_bytes * t.edges)

let sq_error t = t.sq

let alive_ids t =
  let acc = ref [] in
  for i = Array.length t.uf - 1 downto 0 do
    if t.uf.(i) = i then acc := i :: !acc
  done;
  !acc

(* Rename stale keys in a stats map.  Pure renames only: a collapse of
   two live dimensions is handled eagerly during [merge]. *)
let normalize t map =
  let stale = ref [] in
  Hashtbl.iter (fun k _ -> if not (is_rep t k) then stale := k :: !stale) map;
  List.iter
    (fun k ->
      let st = Hashtbl.find map k in
      let k' = find t k in
      Hashtbl.remove map k;
      match Hashtbl.find_opt map k' with
      | Some dst ->
        (* both keys were live when last written only if their merge's
           cross term was already folded in; adding is then correct *)
        dst.sum <- dst.sum +. st.sum;
        dst.sumsq <- dst.sumsq +. st.sumsq
      | None -> Hashtbl.add map k' st)
    !stale

(* A map is walked for stale keys only when a merge has happened since
   its last walk: the calls that still run are the same operations at
   the same points of its history, so hashtable order is unchanged. *)
let out_map t u =
  let map = t.out.(u) in
  if t.normalized.(u) <> t.merges then begin
    normalize t map;
    t.normalized.(u) <- t.merges
  end;
  map

let sq_of_map n map =
  Hashtbl.fold
    (fun _ st acc -> acc +. st.sumsq -. (st.sum *. st.sum /. n))
    map 0.

(* ------------------------------------------------------------------ *)
(* Candidate evaluation                                                 *)
(* ------------------------------------------------------------------ *)

(* In-edge pass for the pair (u, v): per stable source node [s], the
   per-element counts A(s) into u and B(s) into v; grouped by the
   source's current cluster p = find(s), accumulating the covariance
   cross term and presence flags. *)
type parent_info = {
  mutable cross : float;  (* Sum_s n_s * A(s) * B(s) over s in p *)
  mutable has_u : bool;
  mutable has_v : bool;
}

let in_pass t u v =
  let mu = t.inmap.(u) and mv = t.inmap.(v) in
  let per_parent : (int, parent_info) Hashtbl.t = Hashtbl.create 16 in
  let info_of p =
    match Hashtbl.find_opt per_parent p with
    | Some i -> i
    | None ->
      let i = { cross = 0.; has_u = false; has_v = false } in
      Hashtbl.add per_parent p i;
      i
  in
  (* sources feeding u: cross terms need both sides per source *)
  Hashtbl.iter
    (fun s a ->
      let info = info_of (find t s) in
      info.has_u <- true;
      match Hashtbl.find_opt mv s with
      | Some b -> info.cross <- info.cross +. (Synopsis.count t.stable s *. a *. b)
      | None -> ())
    mu;
  (* sources feeding v only contribute their presence flag *)
  Hashtbl.iter (fun s _ -> (info_of (find t s)).has_v <- true) mv;
  per_parent

let get_stats map k =
  match Hashtbl.find_opt map k with
  | Some st -> (st.sum, st.sumsq)
  | None -> (0., 0.)

(* Children-part statistics of the merged cluster, and the number of
   distinct out-dimensions it would have. *)
let merged_children t u v per_parent =
  let mu = out_map t u and mv = out_map t v in
  let n_x = t.count.(u) +. t.count.(v) in
  (* union of dimensions with u, v collapsed into one ("x") *)
  let sq_acc = ref 0. and dims = ref 0 in
  let su_u, qu_u = get_stats mu u and su_v, qu_v = get_stats mu v in
  let sv_u, qv_u = get_stats mv u and sv_v, qv_v = get_stats mv v in
  let cross_u =
    match Hashtbl.find_opt per_parent u with Some i -> i.cross | None -> 0.
  in
  let cross_v =
    match Hashtbl.find_opt per_parent v with Some i -> i.cross | None -> 0.
  in
  let x_sum = su_u +. su_v +. sv_u +. sv_v in
  let x_sumsq = qu_u +. qu_v +. qv_u +. qv_v +. (2. *. (cross_u +. cross_v)) in
  if x_sum > 0. then begin
    incr dims;
    sq_acc := !sq_acc +. x_sumsq -. (x_sum *. x_sum /. n_x)
  end;
  let visit_dim w st_sum st_sumsq =
    if w <> u && w <> v && (st_sum > 0. || st_sumsq > 0.) then begin
      incr dims;
      sq_acc := !sq_acc +. st_sumsq -. (st_sum *. st_sum /. n_x)
    end
  in
  Hashtbl.iter
    (fun w st ->
      if w <> u && w <> v then begin
        let s2, q2 = get_stats mv w in
        visit_dim w (st.sum +. s2) (st.sumsq +. q2)
      end)
    mu;
  Hashtbl.iter
    (fun w st ->
      if w <> u && w <> v && not (Hashtbl.mem mu w) then
        visit_dim w st.sum st.sumsq)
    mv;
  (!sq_acc, !dims, x_sum, x_sumsq)

let check_pair t u v =
  u <> v
  && is_rep t u && is_rep t v
  && Xmldoc.Label.equal (label t u) (label t v)

(* Full evaluation of a candidate merge. *)
let evaluate t u v =
  let per_parent = in_pass t u v in
  let sq_x, dims_x, x_sum, x_sumsq = merged_children t u v per_parent in
  let delta_children = sq_x -. t.sqout.(u) -. t.sqout.(v) in
  (* common external parents: covariance correction + one saved edge *)
  let delta_parents = ref 0. and in_saved = ref 0 in
  let commons = ref [] in
  Hashtbl.iter
    (fun p info ->
      if p <> u && p <> v && info.has_u && info.has_v then begin
        let mp = out_map t p in
        let sum_pu, _ = get_stats mp u and sum_pv, _ = get_stats mp v in
        let d = 2. *. (info.cross -. (sum_pu *. sum_pv /. t.count.(p))) in
        delta_parents := !delta_parents +. d;
        incr in_saved;
        commons := (p, info.cross, d) :: !commons
      end)
    per_parent;
  let out_u = Hashtbl.length (out_map t u) and out_v = Hashtbl.length (out_map t v) in
  let out_saved = out_u + out_v - dims_x in
  let errd = delta_children +. !delta_parents in
  let sized = Synopsis.node_bytes + (Synopsis.edge_bytes * (out_saved + !in_saved)) in
  (errd, sized, out_saved + !in_saved, sq_x, x_sum, x_sumsq, !commons, per_parent)

let delta t u v =
  if not (check_pair t u v) then None
  else begin
    let errd, sized, _, _, _, _, _, _ = evaluate t u v in
    Some { errd; sized }
  end

let bump t i = t.version.(i) <- t.version.(i) + 1

let merge t u v =
  if not (check_pair t u v) then invalid_arg "Cluster.merge";
  let errd, _, edges_saved, sq_x, x_sum, x_sumsq, commons, per_parent =
    evaluate t u v
  in
  let mu = out_map t u and mv = out_map t v in
  (* Build the merged out map in place on u's table. *)
  Hashtbl.iter
    (fun w st ->
      if w <> u && w <> v then begin
        match Hashtbl.find_opt mu w with
        | Some dst ->
          dst.sum <- dst.sum +. st.sum;
          dst.sumsq <- dst.sumsq +. st.sumsq
        | None -> Hashtbl.add mu w { sum = st.sum; sumsq = st.sumsq }
      end)
    mv;
  Hashtbl.remove mu u;
  Hashtbl.remove mu v;
  if x_sum > 0. then Hashtbl.add mu u { sum = x_sum; sumsq = x_sumsq };
  t.out.(v) <- Hashtbl.create 1;
  (* Common external parents: collapse their (u, v) dimensions with the
     cross term, so later lazy renames stay pure. *)
  List.iter
    (fun (p, cross, _d) ->
      let mp = out_map t p in
      let sum_pu, sq_pu = get_stats mp u and sum_pv, sq_pv = get_stats mp v in
      Hashtbl.remove mp u;
      Hashtbl.remove mp v;
      Hashtbl.add mp u
        {
          sum = sum_pu +. sum_pv;
          sumsq = sq_pu +. sq_pv +. (2. *. cross);
        };
      t.sqout.(p) <- sq_of_map t.count.(p) mp)
    commons;
  (* Union: u survives; merge the in-edge maps smaller-into-larger. *)
  let small, big =
    if Hashtbl.length t.inmap.(u) <= Hashtbl.length t.inmap.(v) then
      (t.inmap.(u), t.inmap.(v))
    else (t.inmap.(v), t.inmap.(u))
  in
  Hashtbl.iter
    (fun s k ->
      Hashtbl.replace big s (k +. Option.value ~default:0. (Hashtbl.find_opt big s)))
    small;
  t.inmap.(u) <- big;
  t.inmap.(v) <- Hashtbl.create 1;
  t.uf.(v) <- u;
  t.merges <- t.merges + 1;
  t.members.(u) <- List.rev_append t.members.(v) t.members.(u);
  t.members.(v) <- [];
  t.count.(u) <- t.count.(u) +. t.count.(v);
  t.height.(u) <- max t.height.(u) t.height.(v);
  t.alive <- t.alive - 1;
  t.edges <- t.edges - edges_saved;
  t.sq <- t.sq +. errd;
  t.sqout.(u) <- sq_x;
  (* staleness: the pair, every parent, every child *)
  Hashtbl.iter (fun p _ -> bump t (find t p)) per_parent;
  Hashtbl.iter (fun w _ -> bump t (find t w)) mu;
  bump t u;
  bump t v;
  u

(* ------------------------------------------------------------------ *)
(* Construction and export                                              *)
(* ------------------------------------------------------------------ *)

let of_stable stable =
  let n = Synopsis.num_nodes stable in
  let heights = Synopsis.heights stable in
  let inmap = Array.init n (fun _ -> Hashtbl.create 4) in
  Array.iteri
    (fun u node ->
      Array.iter (fun (v, k) -> Hashtbl.replace inmap.(v) u k) node.Synopsis.edges)
    stable.Synopsis.nodes;
  let out =
    Array.init n (fun u ->
        let map = Hashtbl.create 8 in
        let n_u = Synopsis.count stable u in
        Array.iter
          (fun (v, k) ->
            match Hashtbl.find_opt map v with
            | Some st ->
              st.sum <- st.sum +. (n_u *. k);
              st.sumsq <- st.sumsq +. (n_u *. k *. k)
            | None -> Hashtbl.add map v { sum = n_u *. k; sumsq = n_u *. k *. k })
          (Synopsis.edges stable u);
        map)
  in
  {
    stable;
    inmap;
    uf = Array.init n (fun i -> i);
    members = Array.init n (fun i -> [ i ]);
    count = Array.init n (fun i -> Synopsis.count stable i);
    height = Array.copy heights;
    version = Array.make n 0;
    alive = n;
    edges = Synopsis.num_edges stable;
    sq = 0.;
    out;
    sqout = Array.make n 0.;
    merges = 0;
    normalized = Array.make n 0;
  }

(* Reference recomputation from the stable summary — O(members * degree)
   per cluster; used by tests to validate the incremental bookkeeping. *)
let sq_error_direct t =
  List.fold_left
    (fun acc u ->
      let per_target : (int, float ref * float ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let n_s = Synopsis.count t.stable s in
          (* group s's stable edges by live target *)
          let local : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
          Array.iter
            (fun (tgt, k) ->
              let r = find t tgt in
              match Hashtbl.find_opt local r with
              | Some cell -> cell := !cell +. k
              | None -> Hashtbl.add local r (ref k))
            (Synopsis.edges t.stable s);
          Hashtbl.iter
            (fun r kk ->
              let sum, sumsq =
                match Hashtbl.find_opt per_target r with
                | Some cell -> cell
                | None ->
                  let cell = (ref 0., ref 0.) in
                  Hashtbl.add per_target r cell;
                  cell
              in
              sum := !sum +. (n_s *. !kk);
              sumsq := !sumsq +. (n_s *. !kk *. !kk))
            local)
        t.members.(u);
      Hashtbl.fold
        (fun _ (sum, sumsq) a -> a +. !sumsq -. (!sum *. !sum /. t.count.(u)))
        per_target acc)
    0. (alive_ids t)

let to_synopsis t =
  let reps = alive_ids t in
  let index = Hashtbl.create (List.length reps) in
  List.iteri (fun i r -> Hashtbl.add index r i) reps;
  let nodes =
    Array.of_list
      (List.map
         (fun r ->
           let map = out_map t r in
           let edges =
             Hashtbl.fold
               (fun tgt st acc ->
                 if st.sum > 0. then
                   (Hashtbl.find index tgt, st.sum /. t.count.(r)) :: acc
                 else acc)
               map []
           in
           {
             Synopsis.label = label t r;
             count = t.count.(r);
             edges = Array.of_list edges;
           })
         reps)
  in
  Synopsis.make ~root:(Hashtbl.find index (find t t.stable.Synopsis.root)) nodes
