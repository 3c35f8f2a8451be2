type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill eng iv v =
  match iv.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters ->
    iv.state <- Full v;
    List.iter
      (fun w -> ignore (Engine.schedule eng ~delay:0.0 (fun () -> w v) : Engine.handle))
      (List.rev waiters)

let on_full eng iv f =
  match iv.state with
  | Full v -> ignore (Engine.schedule eng ~delay:0.0 (fun () -> f v) : Engine.handle)
  | Empty waiters -> iv.state <- Empty (f :: waiters)
